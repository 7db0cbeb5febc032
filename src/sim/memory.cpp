#include "sim/memory.hpp"

#include <algorithm>
#include <bit>

namespace cudanp::sim {

void DeviceBuffer::out_of_bounds(std::size_t idx) const {
  throw SimError("global memory access out of bounds: index " +
                 std::to_string(idx) + " size " + std::to_string(size()));
}

BufferId DeviceMemory::alloc(ir::ScalarType type, std::size_t elems) {
  const std::uint64_t kAlign = 256;
  std::uint64_t base = (next_addr_ + kAlign - 1) / kAlign * kAlign;
  std::uint64_t bytes =
      elems * static_cast<std::uint64_t>(ir::Type::scalar_size_bytes(type));
  next_addr_ = base + bytes;
  buffers_.emplace_back(type, elems, base);
  return static_cast<BufferId>(buffers_.size() - 1);
}

DeviceBuffer& DeviceMemory::buffer(BufferId id) {
  if (id >= buffers_.size()) throw SimError("invalid buffer id");
  return buffers_[id];
}

const DeviceBuffer& DeviceMemory::buffer(BufferId id) const {
  if (id >= buffers_.size()) throw SimError("invalid buffer id");
  return buffers_[id];
}

int coalesced_transactions(std::span<const std::uint64_t> addrs,
                           std::uint32_t active, int segment_bytes) {
  // Count unique segment ids. Strided kernels touch a distinct segment
  // per lane, so dedupe through a 64-slot open-addressed set (load
  // factor <= 1/2 with <= 32 lanes) instead of a quadratic rescans.
  std::uint64_t segs[64];
  bool used[64] = {false};
  int n = 0;
  const std::uint64_t sb = static_cast<std::uint64_t>(segment_bytes);
  const bool pow2 = (sb & (sb - 1)) == 0;  // hardware sizes; div is hot
  const int shift = pow2 ? std::countr_zero(sb) : 0;
  std::uint64_t last = 0;
  bool have_last = false;
  for (std::uint32_t b = active; b; b &= b - 1) {
    const std::uint64_t a =
        addrs[static_cast<std::size_t>(std::countr_zero(b))];
    std::uint64_t seg = pow2 ? a >> shift : a / sb;
    if (have_last && seg == last) continue;  // sequential runs are common
    last = seg;
    have_last = true;
    std::size_t h = (seg * 0x9E3779B97F4A7C15ull) >> 58;
    bool seen = false;
    while (used[h]) {
      if (segs[h] == seg) {
        seen = true;
        break;
      }
      h = (h + 1) & 63;
    }
    if (!seen && n < 32) {
      used[h] = true;
      segs[h] = seg;
      ++n;
    }
  }
  return n;
}

int smem_replays(std::span<const std::uint64_t> word_addrs,
                 std::uint32_t active, int banks) {
  // For each bank, count distinct words requested; the access replays
  // max-over-banks times. Identical words broadcast for free.
  const std::uint64_t ub = static_cast<std::uint64_t>(banks);
  const std::uint64_t bmask = (ub & (ub - 1)) == 0 ? ub - 1 : 0;
  auto bank_of = [&](std::uint64_t w) {
    return static_cast<int>(bmask ? (w & bmask) : w % ub);
  };

  // Conflict-free fast path: one pass builds the set of requested banks,
  // remembering the word that claimed each. Unless some bank is asked for
  // two different words, one pass serves the whole warp.
  if (banks <= 64) {
    std::uint64_t claimed = 0;
    std::uint64_t owner[64];
    bool conflict = false;
    for (std::uint32_t b = active; b; b &= b - 1) {
      const std::uint64_t w =
          word_addrs[static_cast<std::size_t>(std::countr_zero(b))];
      const int k = bank_of(w);
      const std::uint64_t bit = std::uint64_t{1} << k;
      if (!(claimed & bit)) {
        claimed |= bit;
        owner[k] = w;
      } else if (owner[k] != w) {
        conflict = true;
        break;
      }
    }
    if (!conflict) return 1;
  }

  // Conflicting access: dedupe the requested words (a warp holds at most
  // 32, so the distinct set fits on the stack), then tally each distinct
  // word's bank. The max tally is the max-over-banks distinct count.
  std::uint64_t words[32];
  int bank[32];
  int n = 0;
  std::uint64_t last = 0;
  bool have_last = false;
  for (std::uint32_t b = active; b; b &= b - 1) {
    const std::uint64_t w =
        word_addrs[static_cast<std::size_t>(std::countr_zero(b))];
    if (have_last && w == last) continue;  // broadcast runs are common
    last = w;
    have_last = true;
    bool seen = false;
    for (int k = 0; k < n; ++k) {
      if (words[k] == w) {
        seen = true;
        break;
      }
    }
    if (!seen && n < 32) {
      bank[n] = bank_of(w);
      words[n++] = w;
    }
  }
  int replays = 0;
  if (banks <= 64) {
    int cnt[64] = {0};
    for (int k = 0; k < n; ++k) replays = std::max(replays, ++cnt[bank[k]]);
  } else {
    for (int i = 0; i < n; ++i) {
      int c = 0;
      for (int j = 0; j <= i; ++j)
        if (bank[j] == bank[i]) ++c;
      replays = std::max(replays, c);
    }
  }
  return std::max(replays, 1);
}

int warp_lines(std::span<const std::uint64_t> addrs, std::uint32_t active,
               int line_bytes, std::uint64_t* lines) {
  const auto lb = static_cast<std::uint64_t>(line_bytes);
  int n = 0;
  for (std::uint32_t b = active; b; b &= b - 1) {
    const std::uint64_t line =
        addrs[static_cast<std::size_t>(std::countr_zero(b))] / lb;
    bool seen = false;
    for (int j = 0; j < n; ++j)
      if (lines[j] == line) {
        seen = true;
        break;
      }
    if (!seen) lines[n++] = line;
  }
  return n;
}

std::optional<AffineWarp> affine_lanes(const std::int64_t* v,
                                       std::uint32_t active) {
  if (active != ~0u) return std::nullopt;
  const std::uint64_t d =
      static_cast<std::uint64_t>(v[1]) - static_cast<std::uint64_t>(v[0]);
  std::uint64_t off = 0;
  for (int k = 2; k < 32; ++k)
    off |= (static_cast<std::uint64_t>(v[k]) -
            static_cast<std::uint64_t>(v[k - 1])) ^
           d;
  if (off != 0) return std::nullopt;
  return AffineWarp{static_cast<std::uint64_t>(v[0]),
                    static_cast<std::int64_t>(d)};
}

namespace {

constexpr std::uint64_t kAffineLimit = std::uint64_t{1} << 62;
constexpr std::int64_t kAffineMaxStride = std::int64_t{1} << 57;

/// The lowest and highest address of an affine warp, when every lane's
/// address lies in [0, kAffineLimit). |31 * stride| < 2^62 keeps the
/// last address exact, and the lanes between the two ends stay in range.
bool affine_span(AffineWarp a, std::uint64_t* lo, std::uint64_t* hi) {
  if (a.first >= kAffineLimit || a.stride > kAffineMaxStride ||
      a.stride < -kAffineMaxStride)
    return false;
  const std::int64_t last = static_cast<std::int64_t>(a.first) + 31 * a.stride;
  if (last < 0 || static_cast<std::uint64_t>(last) >= kAffineLimit)
    return false;
  *lo = std::min(a.first, static_cast<std::uint64_t>(last));
  *hi = std::max(a.first, static_cast<std::uint64_t>(last));
  return true;
}

bool pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

}  // namespace

int affine_transactions(AffineWarp a, int segment_bytes) {
  std::uint64_t lo = 0, hi = 0;
  if (!pow2(segment_bytes) || !affine_span(a, &lo, &hi)) return 0;
  if (a.stride == 0) return 1;
  if (a.stride >= segment_bytes || a.stride <= -segment_bytes) return 32;
  const int shift = std::countr_zero(static_cast<unsigned>(segment_bytes));
  return static_cast<int>((hi >> shift) - (lo >> shift)) + 1;
}

int affine_replays(AffineWarp a, int banks) {
  std::uint64_t lo = 0, hi = 0;
  if (!pow2(banks) || !affine_span(a, &lo, &hi)) return 0;
  if (a.stride == 0) return 1;
  // The 32 words are distinct; lanes k and k' share a bank when
  // (k - k') * stride is a multiple of banks, so each touched bank gets
  // 32 * gcd / banks of them. Both are powers of two, so gcd(|stride|,
  // banks) is the lower of banks and stride's lowest set bit.
  const auto s = static_cast<std::uint64_t>(a.stride);
  const std::uint64_t gcd =
      std::min(s & (~s + 1), static_cast<std::uint64_t>(banks));
  return static_cast<int>(
      std::max<std::uint64_t>(1, 32 * gcd / static_cast<std::uint64_t>(banks)));
}

int affine_lines(AffineWarp a, int line_bytes, std::uint64_t* first_line) {
  std::uint64_t lo = 0, hi = 0;
  if (!pow2(line_bytes) || a.stride < 0 || a.stride > line_bytes ||
      !affine_span(a, &lo, &hi))
    return 0;
  const int shift = std::countr_zero(static_cast<unsigned>(line_bytes));
  *first_line = lo >> shift;
  return static_cast<int>((hi >> shift) - *first_line) + 1;
}

L1Cache::L1Cache(std::int64_t capacity_bytes, int line_bytes, int ways)
    : capacity_(std::max<std::int64_t>(capacity_bytes, 0)),
      line_bytes_(line_bytes),
      ways_(ways) {
  std::int64_t lines = capacity_ / line_bytes_;
  num_sets_ = static_cast<std::size_t>(std::max<std::int64_t>(lines / ways_, 1));
  if (capacity_ > 0) {
    tags_.assign(num_sets_ * static_cast<std::size_t>(ways_), 0);
    lru_.assign(num_sets_ * static_cast<std::size_t>(ways_), 0);
  }
}

bool L1Cache::access(std::uint64_t addr) {
  if (capacity_ <= 0) return false;
  std::uint64_t line = addr / static_cast<std::uint64_t>(line_bytes_);
  std::size_t set = static_cast<std::size_t>(line) % num_sets_;
  std::uint64_t tag = line + 1;
  std::size_t base = set * static_cast<std::size_t>(ways_);
  ++clock_;
  for (int w = 0; w < ways_; ++w) {
    if (tags_[base + static_cast<std::size_t>(w)] == tag) {
      lru_[base + static_cast<std::size_t>(w)] = clock_;
      return true;
    }
  }
  // Miss: evict LRU way.
  std::size_t victim = base;
  for (int w = 1; w < ways_; ++w) {
    std::size_t i = base + static_cast<std::size_t>(w);
    if (lru_[i] < lru_[victim]) victim = i;
  }
  tags_[victim] = tag;
  lru_[victim] = clock_;
  return false;
}

void L1Cache::reset() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(lru_.begin(), lru_.end(), 0);
  clock_ = 0;
}

}  // namespace cudanp::sim
