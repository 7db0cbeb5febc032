#include "support/flags.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace cudanp {

FlagTable::FlagTable(std::string tool, std::string usage)
    : tool_(std::move(tool)), usage_(std::move(usage)) {}

FlagTable& FlagTable::add(Row row) {
  rows_.push_back(std::move(row));
  return *this;
}

FlagTable& FlagTable::positive(std::string name, std::string help,
                               double* dest, double max) {
  std::ostringstream expected, current;
  if (max == std::numeric_limits<double>::infinity())
    expected << "a positive number";
  else
    expected << "a number in (0, " << max << "]";
  current << *dest;
  return add({std::move(name), Arg::kInline, "=<f>", std::move(help),
              expected.str(), current.str(), [=](std::string_view v) {
                auto x = parse_f64(v);
                if (!x || !(*x > 0.0) || *x > max) return false;
                *dest = *x;
                return true;
              }});
}

FlagTable& FlagTable::text(std::string name, std::string placeholder,
                           std::string help, std::string* dest,
                           bool allow_empty) {
  return add({std::move(name), Arg::kInline, "=" + placeholder,
              std::move(help), "a non-empty value", *dest,
              [=](std::string_view v) {
                if (v.empty() && !allow_empty) return false;
                *dest = v;
                return true;
              }});
}

FlagTable& FlagTable::list(std::string name, std::string placeholder,
                           std::string help, std::vector<std::string>* dest) {
  return add({std::move(name), Arg::kInline, "=" + placeholder,
              std::move(help), "", "", [=](std::string_view v) {
                for (auto& piece : split(v, ','))
                  if (!piece.empty()) dest->push_back(std::move(piece));
                return true;
              }});
}

FlagTable& FlagTable::separate(std::string name, std::string placeholder,
                               std::string help, std::string* dest) {
  return add({std::move(name), Arg::kSeparate, " " + placeholder,
              std::move(help), "", *dest, [=](std::string_view v) {
                *dest = v;
                return true;
              }});
}

FlagTable& FlagTable::defaults_to(std::string_view value) {
  Row& row = rows_.back();
  if (!row.store(value))
    throw std::logic_error("bad default for " + row.name);
  row.fallback = value;
  return *this;
}

FlagTable& FlagTable::marks(bool* flag) {
  auto& store = rows_.back().store;
  store = [inner = std::move(store), flag](std::string_view v) {
    return inner(v) && (*flag = true);
  };
  return *this;
}

FlagTable& FlagTable::section(std::string title) {
  return add({"", Arg::kNone, "", std::move(title), "", "", nullptr});
}

const FlagTable::Row* FlagTable::find(std::string_view name) const {
  for (const Row& row : rows_)
    if (row.store && row.name == name) return &row;
  return nullptr;
}

std::string FlagTable::apply(const Row& row, std::string_view value) {
  if (row.store(value)) return {};
  return "bad value for " + row.name + ": '" + std::string(value) +
         "' (expected " + row.expected + ")";
}

FlagTable::Result FlagTable::try_parse(int argc, const char* const* argv,
                                       std::size_t max_positional) const {
  Result r;
  auto error = [&r](std::string message) {
    r.error = std::move(message);
    return r;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--help" || a == "-h") {
      r.help = true;
      return r;
    }
    if (a.empty() || a[0] != '-') {
      if (r.positional.size() == max_positional)
        return error("unexpected argument: " + std::string(a));
      r.positional.emplace_back(a);
      continue;
    }
    const auto eq = a.find('=');
    const std::string name(a.substr(0, eq));
    const Row* row = find(name);
    if (!row) return error("unknown option: " + std::string(a));
    std::string_view value;
    if (row->arg == Arg::kNone) {
      if (eq != std::string_view::npos)
        return error(name + " takes no value");
    } else if (row->arg == Arg::kInline) {
      if (eq == std::string_view::npos)
        return error(name + " needs a value: " + name + row->placeholder);
      value = a.substr(eq + 1);
    } else {
      if (eq != std::string_view::npos || i + 1 >= argc)
        return error(name + " needs a value: " + name + row->placeholder);
      value = argv[++i];
    }
    if (auto e = apply(*row, value); !e.empty()) return error(std::move(e));
  }
  return r;
}

std::string FlagTable::try_parse_fields(
    const std::vector<std::string>& fields) const {
  for (const std::string& field : fields) {
    const auto eq = field.find('=');
    const Row* row = find(std::string_view(field).substr(0, eq));
    if (!row) return "unknown field '" + field + "'";
    const std::string_view value =
        eq == std::string::npos ? "" : std::string_view(field).substr(eq + 1);
    if (auto e = apply(*row, value); !e.empty()) return e;
  }
  return {};
}

std::vector<std::string> FlagTable::parse(int argc, const char* const* argv,
                                          std::size_t max_positional) const {
  Result r = try_parse(argc, argv, max_positional);
  if (r.help) {
    print_help(std::cout);
    std::exit(0);
  }
  if (!r.error.empty()) fail(r.error);
  return std::move(r.positional);
}

void FlagTable::fail(std::string_view message) const {
  if (!message.empty()) std::cerr << tool_ << ": " << message << "\n";
  std::cerr << usage_;
  std::exit(1);
}

void FlagTable::print_help(std::ostream& os) const {
  constexpr std::size_t kColumn = 28;
  os << usage_;
  if (!rows_.empty() && !rows_.front().name.empty()) os << "\noptions:\n";
  for (const Row& row : rows_) {
    if (row.name.empty()) {
      os << "\n" << row.help << ":\n";
      continue;
    }
    std::string left = "  " + row.name + row.placeholder;
    left += left.size() < kColumn ? std::string(kColumn - left.size(), ' ')
                                  : "\n" + std::string(kColumn, ' ');
    os << left << row.help;
    if (!row.fallback.empty()) os << " (default " << row.fallback << ")";
    os << "\n";
  }
}

}  // namespace cudanp
