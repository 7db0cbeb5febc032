// Engine equivalence, pinned to recorded digests. Each line of
// golden/engine_digests.txt is one case's observables on the bytecode VM:
// KernelStats, modeled seconds, an FNV-1a hash of every device buffer, the
// hazard stream's count and hash, and the hash of the SimError the run
// raised. The lines were recorded while the AST block walker still
// existed, with the walker and the VM (benchmarks at jobs 1 and 8 on each)
// asserted equal on every line; the VM must keep reproducing them. Cases:
// the paper suite (baseline, sanitized baseline and every NP variant, each
// at jobs 1 and 8 against one line), watchdog trips, a racy kernel's
// hazard stream, divergent-control-flow fuzz kernels and mixed-type fuzz
// kernels over partial tail warps. A mismatch prints the actual line: a
// deliberate cost-model or semantics change is re-recorded by pasting it
// over the old one. See docs/performance.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "kernels/benchmark.hpp"
#include "np/certifier.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "sim/interpreter.hpp"
#include "sim/sanitizer.hpp"
#include "sim/symexec.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace cudanp {
namespace {

constexpr double kTestScale = 0.05;
constexpr std::uint64_t kMixedSeed = 3;

/// FNV-1a over every buffer of the workload: type, size, raw bytes.
std::string memory_hash(const sim::DeviceMemory& mem) {
  Fnv1a h;
  for (std::size_t i = 0; i < mem.buffer_count(); ++i) {
    const auto& b = mem.buffer(static_cast<sim::BufferId>(i));
    h.field(b.type() == ir::ScalarType::kFloat ? "f32" : "i32");
    h.field(std::to_string(b.size()));
    if (b.type() == ir::ScalarType::kFloat) {
      auto f = b.f32();
      h.field({reinterpret_cast<const char*>(f.data()), f.size() * 4});
    } else {
      auto v = b.i32();
      h.field({reinterpret_cast<const char*>(v.data()), v.size() * 4});
    }
  }
  return h.hex();
}

/// Count and FNV-1a of the hazard stream, in report order.
std::string hazard_hash(const std::vector<sim::HazardReport>& reports) {
  Fnv1a h;
  for (const auto& r : reports) {
    h.field(std::to_string(static_cast<int>(r.kind)));
    h.field(r.kernel);
    h.field(std::to_string(r.block.x) + "," + std::to_string(r.block.y) +
            "," + std::to_string(r.block.z));
    h.field(std::to_string(r.thread));
    h.field(std::to_string(r.loc.line));
    h.field(std::to_string(r.loc.column));
    h.field(r.message);
  }
  return std::to_string(reports.size()) + ":" + h.hex();
}

/// One run's observables: KernelStats, modeled seconds, the memory and
/// hazard hashes, and the hash of the SimError it raised ("-" if none).
std::string digest(const sim::DeviceMemory& mem, const np::ExecutionResult* r,
                   const std::string& error) {
  const sim::KernelStats s = r ? r->run.stats : sim::KernelStats{};
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "ran=%d blocks=%lld warps=%lld issue=%.17g dram=%lld global=%lld "
      "local=%lld l1miss=%lld smem=%lld replays=%lld shfl=%lld sync=%lld "
      "divergent=%lld crit=%.17g seconds=%.17g",
      r && r->ran ? 1 : 0, static_cast<long long>(s.blocks),
      static_cast<long long>(s.warps), s.issue_slots,
      static_cast<long long>(s.dram_transactions),
      static_cast<long long>(s.global_transactions),
      static_cast<long long>(s.local_transactions),
      static_cast<long long>(s.local_l1_misses),
      static_cast<long long>(s.smem_accesses),
      static_cast<long long>(s.smem_replays),
      static_cast<long long>(s.shfl_ops), static_cast<long long>(s.sync_ops),
      static_cast<long long>(s.divergent_branches), s.crit_path_cycles,
      r ? r->run.timing.seconds : 0.0);
  return std::string(buf) + " out=" + memory_hash(mem) +
         " hazards=" + (r ? hazard_hash(r->hazards()) : "0:-") +
         " error=" + (error.empty() ? "-" : Fnv1a().field(error).hex());
}

/// Runs the request and digests it; a SimError (a watchdog trip with its
/// location) is part of the digest, not a failure.
std::string run_digest(const np::Runner& runner, np::Workload& w,
                       const np::ExecutionRequest& req) {
  try {
    const np::ExecutionResult r = runner.execute(req);
    return digest(*w.mem, &r, "");
  } catch (const sim::WatchdogError& e) {
    return digest(*w.mem, nullptr,
                  std::string(e.what()) + " @" + e.loc().str());
  } catch (const SimError& e) {
    return digest(*w.mem, nullptr, e.what());
  }
}

constexpr const char* kSpinSource = R"(
__global__ void spin(float* out, int n) {
  int tid = threadIdx.x;
  float acc = 0.0f;
  while (n > 0) {
    acc = acc + 1.0f;
  }
  out[tid] = acc;
}
)";

constexpr const char* kRacySource = R"(
__global__ void racy(float* out, int n) {
  __shared__ float buf[32];
  int tid = threadIdx.x;
  buf[tid % 16] = out[tid];
  __syncthreads();
  out[tid] = buf[(tid * 3) % 32];
}
)";

/// A float[4096] buffer and an int scalar over `grid` blocks of `threads`.
np::Workload small_workload(int threads, int grid, int n) {
  np::Workload w;
  w.launch.args.push_back(w.mem->alloc(ir::ScalarType::kFloat, 4096));
  w.launch.args.push_back(sim::LaunchConfig::scalar_int(n));
  w.launch.block = {threads, 1, 1};
  w.launch.grid = {grid, 1, 1};
  return w;
}

/// Generates a seeded kernel whose control flow diverges per-lane:
/// nested tid-keyed ifs, loops with lane-dependent trip counts, a
/// shared-memory stage with a barrier, and lane-varying arithmetic.
/// Constants are chosen so div/mod never see zero.
std::string fuzz_source(std::uint64_t seed) {
  SplitMix64 rng(seed);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  };
  std::ostringstream os;
  os << "__global__ void fz(float* out, int n) {\n"
     << "  __shared__ float buf[32];\n"
     << "  int tid = threadIdx.x + blockIdx.x * blockDim.x;\n"
     << "  int lane = threadIdx.x;\n"
     << "  float acc = " << pick(1, 4) << ".0f;\n";
  int depth = pick(1, 3);
  for (int d = 0; d < depth; ++d) {
    int mod = pick(2, 7);
    int cut = pick(0, mod - 1);
    os << "  if (lane % " << mod << " > " << cut << ") {\n"
       << "    for (int i = 0; i < " << pick(1, 4) << " + lane % "
       << pick(2, 5) << "; i++) {\n"
       << "      acc += " << pick(1, 3) << ".0f * i;\n"
       << "      if (acc > " << pick(8, 64) << ".0f) acc = acc * 0.5f;\n"
       << "    }\n"
       << "  } else {\n"
       << "    acc = acc - " << pick(1, 3) << ".0f;\n"
       << "  }\n";
  }
  os << "  buf[lane] = acc;\n"
     << "  __syncthreads();\n"
     << "  acc += buf[(lane * " << pick(3, 9) << ") % 32];\n"
     << "  int k = " << pick(1, 6) << ";\n"
     << "  while (k > 0) {\n"
     << "    acc = acc + 0.25f;\n"
     << "    k = k - 1;\n"
     << "  }\n"
     << "  out[tid] = acc;\n"
     << "}\n";
  return os.str();
}

/// Generates a seeded kernel whose if conditions read the seeded float
/// input `v = out[tid]` (or `acc`, which derives from it): nested ifs
/// with else arms, each arm storing to `out`, some holding a lane-keyed
/// if. Lanes split on symbolic values there, so the symbolic executor
/// runs both arms and merges them, which fuzz_source's constant
/// conditions never reach. The shared stage and its barrier stay outside
/// every symbolic arm.
std::string symbolic_branch_source(std::uint64_t seed) {
  SplitMix64 rng(seed);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  };
  const char* const cuts[] = {"-0.75f", "-0.5f", "-0.25f", "0.0f",
                              "0.25f",  "0.5f",  "0.75f"};
  std::ostringstream os;
  auto branch = [&](auto& self, int depth, const std::string& ind) -> void {
    os << ind << "if (" << (pick(0, 1) ? "v" : "acc")
       << (pick(0, 1) ? " > " : " < ") << cuts[pick(0, 6)] << ") {\n"
       << ind << "  acc = acc * " << pick(2, 3) << ".0f + v;\n";
    if (depth > 1) self(self, depth - 1, ind + "  ");
    if (pick(0, 1))
      os << ind << "  if (lane % " << pick(2, 5) << " == 0) acc = acc - v;\n";
    os << ind << "  out[tid] = acc;\n"
       << ind << "} else {\n"
       << ind << "  acc = acc - v * " << pick(1, 3) << ".0f;\n";
    if (depth > 1 && pick(0, 1)) self(self, depth - 1, ind + "  ");
    os << ind << "  out[tid] = acc * 0.5f;\n" << ind << "}\n";
  };
  os << "__global__ void sb(float* out, int n) {\n"
     << "  __shared__ float buf[32];\n"
     << "  int tid = threadIdx.x + blockIdx.x * blockDim.x;\n"
     << "  int lane = threadIdx.x;\n"
     << "  float v = out[tid];\n"
     << "  float acc = " << pick(1, 4) << ".0f;\n";
  branch(branch, pick(2, 3), "  ");
  os << "  buf[lane] = acc;\n"
     << "  __syncthreads();\n"
     << "  acc += buf[(lane * " << pick(3, 9) << ") % 32];\n"
     << "  if (acc > v) {\n"
     << "    out[tid] = acc;\n"
     << "  } else {\n"
     << "    out[tid] = v - acc;\n"
     << "  }\n"
     << "}\n";
  return os.str();
}

/// Generates a seeded kernel of mixed int / float / bool arithmetic:
/// random expression trees with ternaries (including int/float arms),
/// casts, comparisons, logical and bitwise operators, min/max builtins,
/// shfl, and compound assignments, under lane-keyed ifs, loops and early
/// returns so warps run both fully active and partially masked. Divisors
/// and shift counts are kept in range, and stored values are clamped
/// (floats to [-1e6, 1e6], ints to +-1e6), so no float reaches inf or
/// NaN and every float-to-int conversion is defined.
class TypedKernelGen {
 public:
  explicit TypedKernelGen(std::uint64_t seed) : rng_(seed) {}

  std::string source() {
    std::ostringstream os;
    os << "__global__ void ty(float* out, int n) {\n"
       << "  int tid = threadIdx.x + blockIdx.x * blockDim.x;\n"
       << "  int lane = threadIdx.x;\n"
       << "  int i0 = lane - " << pick(0, 40) << ";\n"
       << "  int i1 = n + lane % " << pick(2, 9) << ";\n"
       << "  float f0 = lane * 0.5f;\n"
       << "  float f1 = " << pick(1, 9) << ".25f - lane;\n"
       << "  bool b0 = lane % 3 == 0;\n";
    if (pick(0, 2) == 0)
      os << "  if (lane >= " << pick(20, 140) << ") return;\n";
    stmts(os, pick(4, 8), 1);
    os << "  out[tid * 4] = f0;\n"
       << "  out[tid * 4 + 1] = f1;\n"
       << "  out[tid * 4 + 2] = i0;\n"
       << "  out[tid * 4 + 3] = i1 + b0;\n"
       << "}\n";
    return os.str();
  }

 private:
  int pick(int lo, int hi) {
    return lo + static_cast<int>(
                    rng_.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }
  std::string lit_f() { return std::to_string(pick(1, 40)) + ".5f"; }
  std::string lit_i() { return std::to_string(pick(0, 20)); }

  std::string fexpr(int depth) {
    const int leaf = depth <= 0 ? pick(0, 3) : pick(0, 12);
    switch (leaf) {
      case 0: return pick(0, 1) ? "f0" : "f1";
      case 1: return lit_f();
      case 2: return pick(0, 1) ? "i0" : "lane";  // int in float context
      case 3: return "b0";
      case 4: return "(" + fexpr(depth - 1) + " + " + iexpr(depth - 1) + ")";
      case 5: return "(" + fexpr(depth - 1) + " - " + fexpr(depth - 1) + ")";
      case 6: return "(" + fexpr(depth - 1) + " * " + lit_f() + ")";
      case 7:
        return "(" + fexpr(depth - 1) + " / (f1 * f1 + 1.0f))";
      case 8:  // mixed arms, in either order
        return pick(0, 1) ? "(" + cond(depth - 1) + " ? " + fexpr(depth - 1) +
                                " : " + iexpr(depth - 1) + ")"
                          : "(" + cond(depth - 1) + " ? " + iexpr(depth - 1) +
                                " : " + fexpr(depth - 1) + ")";
      case 9: {  // float and mixed min/max, arms in either order
        static const char* kFns[] = {"fminf(", "fmaxf(", "min(", "max("};
        const std::string f = fexpr(depth - 1);
        const std::string i = iexpr(depth - 1);
        return kFns[pick(0, 3)] + (pick(0, 1) ? f + ", " + i : i + ", " + f) +
               ")";
      }
      case 10: return "abs(" + fexpr(depth - 1) + ")";
      case 11: return "(float)(" + iexpr(depth - 1) + ")";
      default: return "__shfl_xor(f0, " + std::to_string(pick(1, 4)) + ", 32)";
    }
  }

  std::string iexpr(int depth) {
    const int leaf = depth <= 0 ? pick(0, 3) : pick(0, 13);
    switch (leaf) {
      case 0: return pick(0, 1) ? "i0" : "i1";
      case 1: return lit_i();
      case 2: return "lane";
      case 3: return "(int)f0";  // stored floats are clamped
      case 4: return "(" + iexpr(depth - 1) + " + " + iexpr(depth - 1) + ")";
      case 5: return "(" + iexpr(depth - 1) + " * " + iexpr(depth - 1) + ")";
      case 6: return "(" + iexpr(depth - 1) + " / (lane % 3 + 1))";
      case 7:
        return "(" + iexpr(depth - 1) + " % " + std::to_string(pick(2, 7)) +
               ")";
      case 8: {
        static const char* kOps[] = {" & ", " | ", " ^ "};
        return "(" + iexpr(depth - 1) + kOps[pick(0, 2)] + iexpr(depth - 1) +
               ")";
      }
      case 9:
        return "(" + iexpr(depth - 1) + (pick(0, 1) ? " << " : " >> ") +
               "(lane % 4))";
      case 10: return cond(depth - 1);
      case 11:
        return "(" + cond(depth - 1) + " ? " + iexpr(depth - 1) + " : " +
               iexpr(depth - 1) + ")";
      case 12:
        return std::string(pick(0, 1) ? "min(" : "max(") + iexpr(depth - 1) +
               ", " + iexpr(depth - 1) + ")";
      default: return "-" + iexpr(depth - 1);
    }
  }

  std::string cond(int depth) {
    static const char* kCmp[] = {" < ", " <= ", " > ", " >= ", " == ", " != "};
    switch (pick(0, 4)) {
      case 0: return "(" + fexpr(depth) + kCmp[pick(0, 5)] + iexpr(depth) + ")";
      case 1: return "(" + iexpr(depth) + kCmp[pick(0, 5)] + iexpr(depth) + ")";
      case 2:
        return "(" + cond(depth - 1) + (pick(0, 1) ? " && " : " || ") +
               cond(depth - 1) + ")";
      case 3: return "!b0";
      default:
        return "(lane % " + std::to_string(pick(2, 7)) + " > " +
               std::to_string(pick(0, 1)) + ")";
    }
  }

  void clamp(std::ostringstream& os, const std::string& ind,
             const char* var) {
    os << ind << var << " = fminf(fmaxf(" << var
       << ", -1000000.0f), 1000000.0f);\n";
  }

  /// Keeps stored ints within +-1e6, so int op= float stays in range.
  void clamp_int(std::ostringstream& os, const std::string& ind,
                 const char* var) {
    os << ind << var << " = " << var << " % 1000003;\n";
  }

  void stmts(std::ostringstream& os, int count, int nest) {
    const std::string ind(static_cast<std::size_t>(2 * nest), ' ');
    for (int s = 0; s < count; ++s) {
      const char* fv = pick(0, 1) ? "f0" : "f1";
      const char* iv = pick(0, 1) ? "i0" : "i1";
      switch (nest < 3 ? pick(0, 8) : pick(0, 5)) {
        case 0:
          os << ind << fv << " = " << fexpr(3) << ";\n";
          clamp(os, ind, fv);
          break;
        case 1:
          os << ind << iv << " = " << iexpr(3) << ";\n";
          clamp_int(os, ind, iv);
          break;
        case 2:
          os << ind << fv << (pick(0, 1) ? " += " : " -= ") << fexpr(2)
             << ";\n";
          clamp(os, ind, fv);
          break;
        case 3:
          os << ind << fv << (pick(0, 1) ? " *= " : " /= ") << lit_f()
             << ";\n";
          break;
        case 4:
          // int op= int, or int op= float (a float result, stored back).
          if (pick(0, 1))
            os << ind << iv << (pick(0, 1) ? " += " : " *= ") << iexpr(2)
               << ";\n";
          else
            os << ind << iv << (pick(0, 1) ? " -= " : " *= ")
               << (pick(0, 1) ? fv : lit_f()) << ";\n";
          clamp_int(os, ind, iv);
          break;
        case 5: os << ind << "b0 = " << cond(2) << ";\n"; break;
        case 6:
          os << ind << "if (" << cond(2) << ") {\n";
          stmts(os, pick(1, 3), nest + 1);
          os << ind << "} else {\n";
          stmts(os, pick(1, 2), nest + 1);
          os << ind << "}\n";
          break;
        case 7:
          os << ind << "for (int k" << nest << " = 0; k" << nest << " < lane % "
             << pick(2, 5) << "; k" << nest << "++) {\n";
          stmts(os, pick(1, 2), nest + 1);
          os << ind << "}\n";
          break;
        default:
          os << ind << "if (lane % " << pick(2, 6) << " == 0) {\n";
          stmts(os, 1, nest + 1);
          os << ind << "}\n";
          break;
      }
    }
  }

  SplitMix64 rng_;
};

/// The golden digests, keyed by case id ("<id> | <digest>" per line).
const std::map<std::string, std::string>& golden() {
  static const auto table = [] {
    std::map<std::string, std::string> t;
    std::ifstream in(CUDANP_ENGINE_DIGESTS);
    std::string line;
    while (std::getline(in, line)) {
      const auto bar = line.find(" | ");
      if (bar != std::string::npos)
        t.emplace(line.substr(0, bar), line.substr(bar + 3));
    }
    return t;
  }();
  return table;
}

/// Fails unless `got` is the golden digest of case `id`; the message
/// carries the actual line, ready to paste into the golden file.
void expect_digest(const std::string& id, const std::string& got) {
  const auto it = golden().find(id);
  if (it == golden().end()) {
    ADD_FAILURE() << "no golden digest for this case; actual line:\n"
                  << id << " | " << got;
    return;
  }
  EXPECT_EQ(it->second, got) << "digest mismatch; actual line:\n"
                             << id << " | " << got;
}

/// Runs the request built over `w` at `jobs` and checks its digest.
template <class MakeRequest>
void expect_case(const std::string& id, np::Workload& w,
                 const MakeRequest& make_request, int jobs, bool sanitize) {
  np::ExecutionRequest req = make_request(w);
  req.with_jobs(jobs);
  if (sanitize) req.sanitized();
  expect_digest(id,
                run_digest(np::Runner{sim::DeviceSpec::gtx680()}, w, req));
}

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(EngineEquivalence, BaselineBitIdentical) {
  auto [name, jobs] = GetParam();
  auto bench = kernels::make_benchmark(name, kTestScale);
  np::Workload w = bench->make_workload();
  expect_case("bench " + name + " baseline", w,
              [&](np::Workload& wl) {
                return np::ExecutionRequest::baseline(bench->kernel(), wl);
              },
              jobs, /*sanitize=*/false);
}

TEST_P(EngineEquivalence, BaselineSanitizedHazardStreamIdentical) {
  auto [name, jobs] = GetParam();
  auto bench = kernels::make_benchmark(name, kTestScale);
  np::Workload w = bench->make_workload();
  expect_case("bench " + name + " baseline sanitized", w,
              [&](np::Workload& wl) {
                return np::ExecutionRequest::baseline(bench->kernel(), wl);
              },
              jobs, /*sanitize=*/true);
}

TEST_P(EngineEquivalence, EveryNpVariantBitIdentical) {
  auto [name, jobs] = GetParam();
  auto bench = kernels::make_benchmark(name, kTestScale);
  auto probe = bench->make_workload();
  auto configs = np::NpCompiler::enumerate_configs(
      bench->kernel(), static_cast<int>(probe.launch.block.count()),
      sim::DeviceSpec::gtx680());
  int executed = 0;
  for (const auto& cfg : configs) {
    SCOPED_TRACE(cfg.describe());
    transform::TransformResult variant;
    try {
      variant = np::NpCompiler::transform(bench->kernel(), cfg);
    } catch (const CompileError&) {
      continue;  // configuration legitimately inapplicable
    }
    np::Workload w = bench->make_workload();
    expect_case("bench " + name + " " + cfg.describe(), w,
                [&](np::Workload& wl) {
                  return np::ExecutionRequest::transformed(variant, wl);
                },
                jobs, /*sanitize=*/false);
    ++executed;
  }
  // Every recorded variant still runs: the golden lines of this benchmark
  // are its two baselines and one line per variant.
  int recorded = 0;
  const std::string prefix = "bench " + name + " ";
  for (const auto& [id, digest] : golden())
    if (id.starts_with(prefix) && !id.starts_with(prefix + "baseline"))
      ++recorded;
  EXPECT_GT(executed, 0);
  EXPECT_EQ(executed, recorded);
}

std::vector<std::tuple<std::string, int>> suite_params() {
  std::vector<std::tuple<std::string, int>> out;
  for (const auto& name : kernels::benchmark_names())
    for (int jobs : {1, 8}) out.emplace_back(name, jobs);
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, EngineEquivalence, ::testing::ValuesIn(suite_params()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      return std::get<0>(info.param) + "_jobs" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------- watchdog trip points ----------------

void expect_spin_case(const std::string& id, bool sanitize) {
  auto program = np::NpCompiler::parse(kSpinSource);
  const ir::Kernel& kernel = *program->kernels.front();
  sim::ExecutionLimits limits;
  limits.max_steps_per_block = 10000;
  np::Workload w = small_workload(32, 1, 64);
  expect_case(id, w,
              [&](np::Workload& wl) {
                return np::ExecutionRequest::baseline(kernel, wl)
                    .with_limits(limits);
              },
              /*jobs=*/1, sanitize);
}

TEST(EngineEquivalenceWatchdog, UnsanitizedTripsAtTheSamePoint) {
  expect_spin_case("watchdog unsanitized", /*sanitize=*/false);
}

TEST(EngineEquivalenceWatchdog, SanitizedTripReportsIdentical) {
  expect_spin_case("watchdog sanitized", /*sanitize=*/true);
}

// ---------------- hazard streams on a racy kernel ----------------

TEST(EngineEquivalenceHazards, RacyKernelStreamsIdentical) {
  auto program = np::NpCompiler::parse(kRacySource);
  const ir::Kernel& kernel = *program->kernels.front();
  np::Workload w = small_workload(32, 2, 64);
  expect_case("racy sanitized", w,
              [&](np::Workload& wl) {
                return np::ExecutionRequest::baseline(kernel, wl);
              },
              /*jobs=*/1, /*sanitize=*/true);
}

// ---------------- symbolic oracle helpers ----------------

/// The certifier's abstraction of `w`: float buffers and float scalars
/// become input leaves, int data stays concrete.
std::vector<sim::SymArg> symbolic_args(const np::Workload& w) {
  std::vector<sim::SymArg> args;
  for (const auto& arg : w.launch.args) {
    sim::SymArg a;
    if (const auto* id = std::get_if<sim::BufferId>(&arg)) {
      const sim::DeviceBuffer& buf = w.mem->buffer(*id);
      a.type = buf.type();
      a.elems = static_cast<std::int64_t>(buf.size());
      if (buf.type() == ir::ScalarType::kFloat) {
        a.kind = sim::SymArg::Kind::kBufferSymbolic;
      } else {
        a.kind = sim::SymArg::Kind::kBufferConcrete;
        const auto iv = buf.i32();
        a.ints.assign(iv.begin(), iv.end());
      }
    } else if (std::get<sim::Value>(arg).is_float()) {
      a.kind = sim::SymArg::Kind::kScalarSymbolic;
      a.type = ir::ScalarType::kFloat;
    } else {
      a.scalar = std::get<sim::Value>(arg);
    }
    args.push_back(std::move(a));
  }
  return args;
}

/// Compares every cell of the kernel's buffer arguments after a VM run
/// of `req` with the symbolic run `sym` evaluated at kMixedSeed; returns
/// the number of cells the evaluator cannot evaluate.
int expect_oracle_cells(const np::Workload& w, const sim::SymExecResult& sym,
                        const sim::SymArena& arena) {
  int unevaluable = 0;
  sim::SymEvaluator eval(arena, kMixedSeed);
  for (std::size_t i = 0; i < w.launch.args.size(); ++i) {
    const auto* id = std::get_if<sim::BufferId>(&w.launch.args[i]);
    if (!id) continue;
    const sim::DeviceBuffer& buf = w.mem->buffer(*id);
    EXPECT_EQ(sym.buffers[i].size(), buf.size()) << "arg " << i;
    if (sym.buffers[i].size() != buf.size()) continue;
    for (std::size_t e = 0; e < buf.size(); ++e) {
      sim::Value v;
      if (!eval.eval(sym.buffers[i][e], &v)) {
        ++unevaluable;
        continue;
      }
      if (buf.type() == ir::ScalarType::kFloat) {
        const auto want = static_cast<float>(v.as_f());
        EXPECT_EQ(std::bit_cast<std::uint32_t>(want),
                  std::bit_cast<std::uint32_t>(buf.f32()[e]))
            << "arg " << i << " cell " << e << ": symbolic " << want
            << ", VM " << buf.f32()[e];
      } else {
        EXPECT_EQ(v.as_i(), buf.i32()[e]) << "arg " << i << " cell " << e;
      }
    }
  }
  return unevaluable;
}

// ---------------- fuzzed kernels ----------------

// Divergent kernels the symbolic executor cannot run to completion.
// Today it runs all 25.
constexpr int kDivergentUnrunnable = 0;

TEST(EngineEquivalenceFuzz, DivergentControlFlowBitIdentical) {
  // Besides the digest, each kernel's symbolic run must equal a VM run
  // on every cell: lane-keyed trip counts, nested divergent ifs with else
  // arms and a while loop go through both engines' region stacks.
  const auto spec = sim::DeviceSpec::gtx680();
  int unrunnable = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto program = np::NpCompiler::parse(fuzz_source(seed));
    const ir::Kernel& kernel = *program->kernels.front();
    np::Workload w = small_workload(32, 2, 64);
    expect_case("divergent seed=" + std::to_string(seed), w,
                [&](np::Workload& wl) {
                  return np::ExecutionRequest::baseline(kernel, wl);
                },
                /*jobs=*/1, /*sanitize=*/false);

    // The digest's buffer starts zeroed; the oracle's starts seeded, so
    // cells the kernel never writes compare too.
    np::Workload sw = small_workload(32, 2, 64);
    np::seed_certify_floats(sw, kMixedSeed);
    sim::SymArena arena;
    const auto sym = sim::sym_execute(spec, kernel, sw.launch.grid,
                                      sw.launch.block, symbolic_args(sw),
                                      arena);
    if (!sym.ok) {
      ++unrunnable;
      continue;
    }
    ASSERT_TRUE(np::Runner{spec}
                    .execute(np::ExecutionRequest::baseline(kernel, sw))
                    .ran);
    EXPECT_EQ(expect_oracle_cells(sw, sym, arena), 0);
  }
  EXPECT_EQ(unrunnable, kDivergentUnrunnable);
}

// Symbolic-branch kernels the symbolic executor cannot run to
// completion. Today it runs all 25.
constexpr int kSymbolicBranchUnrunnable = 0;

TEST(EngineEquivalenceFuzz, SymbolicBranchesEqualTheVm) {
  // Every branch reads the seeded input, so lanes split on symbolic
  // values and each arm's stores merge back; the symbolic run must
  // equal a VM run on the same seeded workload in every cell. No digest
  // lines: the oracle is the check.
  const auto spec = sim::DeviceSpec::gtx680();
  int unrunnable = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const std::string src = symbolic_branch_source(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + src);
    auto program = np::NpCompiler::parse(src);
    const ir::Kernel& kernel = *program->kernels.front();
    np::Workload w = small_workload(32, 2, 64);
    np::seed_certify_floats(w, kMixedSeed);
    sim::SymArena arena;
    const auto sym = sim::sym_execute(spec, kernel, w.launch.grid,
                                      w.launch.block, symbolic_args(w),
                                      arena);
    if (!sym.ok) {
      ++unrunnable;
      continue;
    }
    ASSERT_TRUE(np::Runner{spec}
                    .execute(np::ExecutionRequest::baseline(kernel, w))
                    .ran);
    EXPECT_EQ(expect_oracle_cells(w, sym, arena), 0);
  }
  EXPECT_EQ(unrunnable, kSymbolicBranchUnrunnable);
}

// Mixed-type kernels the symbolic executor cannot run to completion;
// those are skipped by the oracle below. Today it runs all 180.
constexpr int kMixedUncertified = 0;

TEST(EngineEquivalenceFuzz, MixedTypesTailWarpsAndMasksBitIdentical) {
  // Block sizes 48 and 150 leave a partial tail warp. Besides the digest,
  // each kernel's symbolic baseline, evaluated at the seed that filled
  // the output buffer, must equal the VM bit for bit on every cell: an
  // independent reading of the typing rules (ternary arms, compound
  // assignment, min/max) that the digests were recorded under.
  int uncertified = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    for (int threads : {32, 48, 150}) {
      const std::string id = "mixed seed=" + std::to_string(seed) +
                             " threads=" + std::to_string(threads);
      SCOPED_TRACE(id);
      const std::string src = TypedKernelGen(seed * 7919 + 17).source();
      auto program = np::NpCompiler::parse(src);
      const ir::Kernel& kernel = *program->kernels.front();
      np::Workload w = small_workload(threads, 2, 5);
      np::seed_certify_floats(w, kMixedSeed);
      expect_case(id, w,
                  [&](np::Workload& wl) {
                    return np::ExecutionRequest::baseline(kernel, wl);
                  },
                  /*jobs=*/1, /*sanitize=*/seed % 3 == 0);

      std::vector<sim::SymArg> args(2);
      args[0].kind = sim::SymArg::Kind::kBufferSymbolic;
      args[0].type = ir::ScalarType::kFloat;
      args[0].elems = 4096;
      args[1].scalar = sim::Value::of_int(5);
      sim::SymArena arena;
      const auto sym = sim::sym_execute(sim::DeviceSpec::gtx680(), kernel,
                                        w.launch.grid, w.launch.block, args,
                                        arena);
      if (!sym.ok) {
        ++uncertified;
        continue;
      }
      const auto out =
          w.mem->buffer(std::get<sim::BufferId>(w.launch.args[0])).f32();
      ASSERT_EQ(sym.buffers[0].size(), out.size());
      sim::SymEvaluator eval(arena, kMixedSeed);
      for (std::size_t e = 0; e < out.size(); ++e) {
        sim::Value v;
        ASSERT_TRUE(eval.eval(sym.buffers[0][e], &v)) << "cell " << e;
        const auto want = static_cast<float>(v.as_f());
        ASSERT_EQ(std::bit_cast<std::uint32_t>(want),
                  std::bit_cast<std::uint32_t>(out[e]))
            << "cell " << e << ": symbolic " << want << ", VM " << out[e]
            << "\n" << src;
      }
    }
  }
  EXPECT_EQ(uncertified, kMixedUncertified);
}

// ---------------- the symbolic oracle over the paper suite ----------------

constexpr double kOracleScale = 0.02;

/// Cells of a benchmark's programs (baseline and every NP variant) that
/// SymEvaluator cannot evaluate. BK's `if (b > 0) lo = piv[b - 1];`
/// merges into a select whose untaken arm gathers at index -1, and eval
/// evaluates both arms of a select: 662 of each program's 6176 cells.
int oracle_unevaluable(const std::string& bench) {
  return bench == "BK" ? 9 * 662 : 0;
}

class SymbolicOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(SymbolicOracle, EveryProgramEqualsTheVm) {
  // The baseline and every NP variant of one benchmark: each symbolic run,
  // evaluated at the seed that filled the VM's inputs, must equal the VM
  // bit for bit on every cell it can evaluate.
  const std::string name = GetParam();
  auto bench = kernels::make_benchmark(name, kOracleScale);
  const auto spec = sim::DeviceSpec::gtx680();
  const np::Workload probe = bench->make_workload();
  const std::vector<sim::SymArg> args = symbolic_args(probe);
  auto check = [&](const ir::Kernel& kernel, sim::Dim3 block,
                   const std::vector<sim::SymArg>& sym_args,
                   const auto& make_request) {
    sim::SymArena arena;
    const auto sym = sim::sym_execute(spec, kernel, probe.launch.grid, block,
                                      sym_args, arena);
    EXPECT_TRUE(sym.ok) << sym.reason;
    if (!sym.ok) return 0;
    np::Workload w = bench->make_workload();
    np::seed_certify_floats(w, kMixedSeed);
    const auto run = np::Runner{spec}.execute(make_request(w));
    EXPECT_TRUE(run.ran);
    return expect_oracle_cells(w, sym, arena);
  };
  int unevaluable = check(bench->kernel(), probe.launch.block, args,
                          [&](np::Workload& w) {
                            return np::ExecutionRequest::baseline(
                                bench->kernel(), w);
                          });
  int programs = 1;
  for (const auto& cfg : np::NpCompiler::enumerate_configs(
           bench->kernel(), static_cast<int>(probe.launch.block.count()),
           spec)) {
    SCOPED_TRACE(cfg.describe());
    transform::TransformResult variant;
    try {
      variant = np::NpCompiler::transform(bench->kernel(), cfg);
    } catch (const CompileError&) {
      continue;  // configuration legitimately inapplicable
    }
    std::vector<sim::SymArg> vargs = args;
    for (const auto& extra : variant.extra_buffers) {
      sim::SymArg a;
      a.kind = sim::SymArg::Kind::kBufferScratch;
      a.type = extra.type;
      a.elems = extra.elems_per_block * probe.launch.grid.count();
      vargs.push_back(a);
    }
    unevaluable += check(*variant.kernel, variant.block_dims, vargs,
                         [&](np::Workload& w) {
                           return np::ExecutionRequest::transformed(variant,
                                                                    w);
                         });
    ++programs;
  }
  EXPECT_GT(programs, 1);
  EXPECT_EQ(unevaluable, oracle_unevaluable(name));
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SymbolicOracle,
    ::testing::ValuesIn(kernels::benchmark_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ---------------- former lowering-decline shapes ----------------
//
// Lowering used to decline these shapes and run them on the AST walk,
// where a parameter shadow overflowed the one-element uniform-parameter
// slot and a shared scalar read past its one-element storage. Lowering is
// total now: every declaration gets a slot of its own under C block
// scoping, and a shared scalar fails at its declaration.

np::Workload one_block_workload() {
  np::Workload w;
  w.launch.args.push_back(w.mem->alloc(ir::ScalarType::kFloat, 128));
  w.launch.args.push_back(sim::LaunchConfig::scalar_int(64));
  w.launch.block = {32, 1, 1};
  w.launch.grid = {1, 1, 1};
  return w;
}

std::unique_ptr<ir::Program> parse_or_fail(const char* src) {
  auto program = np::NpCompiler::parse(src);
  EXPECT_EQ(program->kernels.size(), 1u);
  return program;
}

/// One sanitized run of `kernel` over one_block_workload.
np::ExecutionResult run_sanitized(const ir::Kernel& kernel,
                                  np::Workload& w) {
  return np::Runner{sim::DeviceSpec::gtx680()}.execute(
      np::ExecutionRequest::baseline(kernel, w).sanitized());
}

/// Runs `kernel` sanitized and not; checks a clean sanitizer and equal
/// outputs, and returns the output buffer.
std::vector<float> run_clean(const ir::Kernel& kernel) {
  auto ws = one_block_workload();
  const auto sanitized = run_sanitized(kernel, ws);
  EXPECT_TRUE(sanitized.clean()) << sanitized.engine.summary();
  auto w = one_block_workload();
  (void)np::Runner{sim::DeviceSpec::gtx680()}.execute(
      np::ExecutionRequest::baseline(kernel, w));
  EXPECT_EQ(memory_hash(*w.mem), memory_hash(*ws.mem));
  auto out = w.mem->buffer(std::get<sim::BufferId>(w.launch.args[0])).f32();
  return {out.begin(), out.end()};
}

/// The SimError message an unsanitized run raises ("" if none).
std::string sim_error(const ir::Kernel& kernel) {
  auto w = one_block_workload();
  try {
    (void)np::Runner{sim::DeviceSpec::gtx680()}.execute(
        np::ExecutionRequest::baseline(kernel, w));
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

TEST(FormerDeclineShapes, ParamShadowedAtKernelScope) {
  auto program = parse_or_fail(R"(
__global__ void shadow(float* out, int n) {
  int tid = threadIdx.x;
  out[tid] = n;
  int n = tid + 1;
  out[32 + tid] = n;
}
)");
  auto out = run_clean(*program->kernels.front());
  for (int tid = 0; tid < 32; ++tid) {
    EXPECT_EQ(out[tid], 64.0f) << "the parameter, before the shadow";
    EXPECT_EQ(out[32 + tid], tid + 1.0f) << "the local, after it";
  }
}

TEST(FormerDeclineShapes, ParamShadowedInNestedBlocks) {
  auto program = parse_or_fail(R"(
__global__ void shadow(float* out, int n) {
  int tid = threadIdx.x;
  float acc = 0.0f;
  if (tid < 16) {
    int n = tid * 2;
    out[tid] = n;
  } else {
    out[tid] = n;
  }
  for (int n = 0, k = 2; n < 3; n++) {
    acc = acc + n * k;
  }
  out[32 + tid] = n;
  out[64 + tid] = acc;
}
)");
  auto out = run_clean(*program->kernels.front());
  for (int tid = 0; tid < 32; ++tid) {
    EXPECT_EQ(out[tid], tid < 16 ? 2.0f * tid : 64.0f) << tid;
    EXPECT_EQ(out[32 + tid], 64.0f) << "parameter visible again";
    EXPECT_EQ(out[64 + tid], 6.0f) << "loop counter shadowed n";
  }
}

TEST(FormerDeclineShapes, SiblingBranchesDeclareIntAndFloat) {
  auto program = parse_or_fail(R"(
__global__ void sibling(float* out, int n) {
  int tid = threadIdx.x;
  if (tid % 2 == 0) {
    int t = 0;
    t = tid / 4.0f;
    out[tid] = t;
  } else {
    float t = 0.0f;
    t = tid / 4.0f;
    out[tid] = t;
  }
}
)");
  auto out = run_clean(*program->kernels.front());
  for (int tid = 0; tid < 32; ++tid) {
    float want = tid % 2 == 0 ? static_cast<float>(tid / 4) : tid / 4.0f;
    EXPECT_EQ(out[tid], want) << tid;
  }
}

TEST(FormerDeclineShapes, NestedSameTypeDeclarationHidesTheOuterOne) {
  // C block scoping: the inner `float s` is a variable of its own, in a
  // branch and in a loop body alike, and the outer `s` keeps its value.
  auto program = parse_or_fail(R"(
__global__ void hide(float* out, int n) {
  int tid = threadIdx.x;
  float s = 1.0f;
  if (tid < 8) {
    float s = 2.0f;
    out[tid] = s;
  }
  for (int i = 0; i < 3; i++) {
    float s = i + 5.0f;
    out[64 + tid] = s;
  }
  out[32 + tid] = s;
}
)");
  auto out = run_clean(*program->kernels.front());
  EXPECT_EQ(out[0], 2.0f) << "the inner s";
  EXPECT_EQ(out[32], 1.0f) << "the outer s, after the branch";
  for (int tid = 0; tid < 32; ++tid) {
    EXPECT_EQ(out[32 + tid], 1.0f) << tid;
    EXPECT_EQ(out[64 + tid], 7.0f) << tid;
  }
}

TEST(FormerDeclineShapes, NamesOutOfScopeAreUndeclared) {
  // A read after the declaring block closed, and a read before a later
  // declaration in the same block, name no variable in scope.
  for (const auto& [src, at] :
       {std::pair{R"(
__global__ void dead(float* out, int n) {
  int tid = threadIdx.x;
  if (tid < 8) {
    float y = 0.5f;
    out[tid] = y;
  }
  out[32 + tid] = y;
}
)",
                  "8:19"},
        std::pair{R"(
__global__ void fwd(float* out, int n) {
  int tid = threadIdx.x;
  for (int i = 0; i < 2; i++) {
    out[tid] = y;
    float y = 1.0f;
  }
}
)",
                  "5:16"}}) {
    auto program = parse_or_fail(src);
    EXPECT_EQ(sim_error(*program->kernels.front()),
              std::string("use of undeclared variable 'y' at ") + at);
  }
}

TEST(FormerDeclineShapes, SelfInitializerReadsTheNewVariable) {
  // In `int x = x + 1;` the initializer's x is the new, unset variable:
  // an uninitialized read (reading zero), never an undeclared name.
  auto program = parse_or_fail(R"(
__global__ void self(float* out, int n) {
  int tid = threadIdx.x;
  int x = x + 1;
  out[tid] = x;
}
)");
  const ir::Kernel& kernel = *program->kernels.front();
  EXPECT_EQ(sim_error(kernel), "");
  auto w = one_block_workload();
  const auto r = run_sanitized(kernel, w);
  ASSERT_EQ(r.hazards().size(), 1u) << r.engine.summary();
  EXPECT_EQ(r.hazards()[0].kind, sim::HazardKind::kUninitRead);
  EXPECT_NE(r.hazards()[0].message.find("uninitialized variable 'x'"),
            std::string::npos)
      << r.hazards()[0].message;
  EXPECT_EQ(w.mem->buffer(std::get<sim::BufferId>(w.launch.args[0]))
                .f32()[0],
            1.0f);
}

TEST(FormerDeclineShapes, LoopBodyDeclarationStartsUnsetEachIteration) {
  // `float u;` runs once per iteration and leaves u unset each time, so
  // the second iteration's `s += u` reads an uninitialized variable, the
  // read the certifier's symbolic run stops at. The storage is kept:
  // the modeled result reads the first iteration's value four times.
  auto program = parse_or_fail(R"(
__global__ void redecl(float* out, int n) {
  int tx = threadIdx.x;
  float s = 0.0f;
  for (int i = 0; i < 4; i++) {
    float u;
    if (i == 0) u = tx + 1.0f;
    s += u;
  }
  out[32 + tx] = s;
}
)");
  const ir::Kernel& kernel = *program->kernels.front();
  auto w = one_block_workload();
  const auto r = run_sanitized(kernel, w);
  ASSERT_FALSE(r.hazards().empty());
  EXPECT_EQ(r.hazards()[0].kind, sim::HazardKind::kUninitRead);
  EXPECT_EQ(r.hazards()[0].thread, 0);
  EXPECT_EQ(r.hazards()[0].loc.line, 8);
  EXPECT_NE(r.hazards()[0].message.find("read of uninitialized variable 'u'"),
            std::string::npos)
      << r.hazards()[0].message;
  const auto out =
      w.mem->buffer(std::get<sim::BufferId>(w.launch.args[0])).f32();
  for (int tx = 0; tx < 32; ++tx) EXPECT_EQ(out[32 + tx], 4.0f * (tx + 1));
}

TEST(FormerDeclineShapes, SharedScalarIsAStructuredError) {
  auto program = parse_or_fail(R"(
__global__ void scalar(float* out, int n) {
  __shared__ float s;
  int tid = threadIdx.x;
  if (tid == 0) s = 2.0f;
  __syncthreads();
  out[tid] = s;
}
)");
  const ir::Kernel& kernel = *program->kernels.front();
  const std::string error = sim_error(kernel);
  EXPECT_EQ(error,
            "unsupported construct: shared-memory scalar 's' at 3:3; declare "
            "a one-element __shared__ array instead");

  auto w = one_block_workload();
  const auto r = run_sanitized(kernel, w);
  ASSERT_EQ(r.hazards().size(), 1u) << r.engine.summary();
  EXPECT_EQ(r.hazards()[0].kind, sim::HazardKind::kSimFault);
  EXPECT_EQ(r.hazards()[0].message, error);
}

TEST(FormerDeclineShapes, BraceInitializerRunsPerThread) {
  // Every thread evaluates a brace initializer into its own copy, under
  // the current mask, and the tail zero-fills on every execution, as the
  // certifier's symbolic run does. Evaluating it for lane 0 and
  // broadcasting gave every thread lane 0's values, and a loop body's
  // tail kept the previous iteration's stores.
  auto program = parse_or_fail(R"(
__global__ void brace(float* out, int n) {
  int tid = threadIdx.x;
  float w[3] = {tid * 2.0f, 1.0f};
  out[tid] = w[0] + w[1] + w[2];
  if (tid >= 8) {
    int v[2] = {tid, n};
    out[32 + tid] = v[0] + v[1];
  }
  float s = 0.0f;
  for (int i = 0; i < 3; i++) {
    float t[2] = {1.0f};
    s += t[1];
    t[1] = 5.0f;
  }
  out[64 + tid] = s;
}
)");
  auto out = run_clean(*program->kernels.front());
  for (int tid = 0; tid < 32; ++tid) {
    EXPECT_EQ(out[tid], tid * 2.0f + 1.0f) << tid;
    EXPECT_EQ(out[32 + tid], tid >= 8 ? tid + 64.0f : 0.0f) << tid;
    EXPECT_EQ(out[64 + tid], 0.0f) << tid;
  }
}

TEST(FormerDeclineShapes, SharedArrayInitializerIsAStructuredError) {
  // CUDA does not initialize shared memory at launch, so nvcc rejects an
  // initializer on a __shared__ array; so does the binder.
  auto program = parse_or_fail(R"(
__global__ void shinit(float* out, int n) {
  __shared__ float w[2] = {1.0f, 2.0f};
  out[threadIdx.x] = w[1];
}
)");
  EXPECT_EQ(sim_error(*program->kernels.front()),
            "unsupported construct: initializer on __shared__ array 'w' at "
            "3:3; shared memory takes no initializer");
}

TEST(FormerDeclineShapes, UnboundDeclarationTraps) {
  auto program = parse_or_fail(R"(
__global__ void late(float* out, int n) {
  out[threadIdx.x] = n;
}
)");
  ir::Kernel& kernel = *program->kernels.front();
  // Bind by running once, then append a declaration the cached binding
  // never saw.
  EXPECT_EQ(sim_error(kernel), "");
  kernel.body->push(std::make_unique<ir::DeclStmt>(
      ir::Type::scalar_of(ir::ScalarType::kInt), "extra"));
  const std::string error = sim_error(kernel);
  EXPECT_NE(error.find("unbound declaration of 'extra'"), std::string::npos)
      << error;
}

// ---------------- request plumbing ----------------

// Sanitized and unsanitized requests over the same workload agree on
// stats, timing and memory: the sanitizer observes, it never perturbs.
TEST(ExecutionRequests, SanitizeIsObservationOnly) {
  auto bench = kernels::make_benchmark("MV", kTestScale);
  np::Runner runner{sim::DeviceSpec::gtx680()};

  auto w1 = bench->make_workload();
  const auto plain =
      runner.execute(np::ExecutionRequest::baseline(bench->kernel(), w1));
  auto w2 = bench->make_workload();
  const auto sanitized = runner.execute(
      np::ExecutionRequest::baseline(bench->kernel(), w2).sanitized());
  EXPECT_TRUE(sanitized.clean()) << sanitized.engine.summary();
  EXPECT_EQ(digest(*w1.mem, &plain, ""), digest(*w2.mem, &sanitized, ""));
}

}  // namespace
}  // namespace cudanp
