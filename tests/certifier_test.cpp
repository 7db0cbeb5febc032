// Symbolic equivalence certification: the arena's normalization algebra,
// verdicts on tiny kernels and on every paper benchmark, refutation of
// deliberately corrupted variants, certificate serialization, and the
// compiler integration (kProvenWrong quarantine + certified fast path).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "frontend/parser.hpp"
#include "kernels/benchmark.hpp"
#include "np/certifier.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "sim/binder.hpp"
#include "sim/fault.hpp"
#include "sim/symexec.hpp"
#include "support/record.hpp"

namespace cudanp {
namespace {

using np::Certificate;
using np::Certifier;
using np::CertifyOptions;
using np::NpCompiler;
using np::Verdict;
using transform::NpConfig;

constexpr double kTestScale = 0.08;

// ---------------------------------------------------------------------
// floats_close: mixed absolute/relative tolerance (satellite of the
// certification PR — the same comparator backs cross-checks & replays).

TEST(FloatsClose, AbsoluteRegimeNearZero) {
  // Tiny magnitudes: relative error is meaningless, the absolute term
  // must carry the comparison.
  EXPECT_TRUE(np::floats_close(0.0f, 5e-5f, 1e-4, 1e-3));
  EXPECT_TRUE(np::floats_close(-4e-5f, 4e-5f, 1e-4, 1e-3));
  EXPECT_FALSE(np::floats_close(0.0f, 3e-4f, 1e-4, 1e-3));
}

TEST(FloatsClose, RelativeRegimeLargeMagnitude) {
  // Large magnitudes: the absolute term alone would reject reassociated
  // reductions; the relative term must scale with the operands.
  EXPECT_TRUE(np::floats_close(1000.0f, 1000.9f, 1e-4, 1e-3));
  EXPECT_FALSE(np::floats_close(1000.0f, 1002.5f, 1e-4, 1e-3));
  EXPECT_TRUE(np::floats_close(-1000.0f, -1000.9f, 1e-4, 1e-3));
}

TEST(FloatsClose, NanMatchesNanOnly) {
  float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(np::floats_close(nan, nan, 1e-4, 1e-3));
  EXPECT_FALSE(np::floats_close(nan, 1.0f, 1e-4, 1e-3));
  EXPECT_FALSE(np::floats_close(1.0f, nan, 1e-4, 1e-3));
}

// ---------------------------------------------------------------------
// SymArena: constant folding and normalization algebra.

TEST(SymArena, FoldsIntConstants) {
  sim::SymArena a;
  EXPECT_EQ(a.bin(ir::BinOp::kAdd, a.cint(2), a.cint(3)), a.cint(5));
  EXPECT_EQ(a.bin(ir::BinOp::kMul, a.cint(-4), a.cint(6)), a.cint(-24));
  EXPECT_EQ(a.bin(ir::BinOp::kDiv, a.cint(7), a.cint(2)), a.cint(3));
}

TEST(SymArena, FoldsFloatsThroughF32) {
  sim::SymArena a;
  // The fold must replicate interpreter arithmetic: round through f32.
  float expect = 0.1f + 0.2f;
  EXPECT_EQ(a.bin(ir::BinOp::kAdd, a.cfloat(0.1), a.cfloat(0.2)),
            a.cfloat(static_cast<double>(expect)));
}

TEST(SymArena, IntDivByZeroFaults) {
  sim::SymArena a;
  EXPECT_THROW((void)a.bin(ir::BinOp::kDiv, a.cint(1), a.cint(0)),
               sim::SymFault);
}

TEST(SymArena, IntOverflowFaultsOrWraps) {
  // INT64_MIN / -1, INT64_MIN % -1 and out-of-range shift counts fault
  // like the interpreter does; + - * and negation wrap.
  sim::SymArena a;
  const auto min = a.cint(std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW((void)a.bin(ir::BinOp::kDiv, min, a.cint(-1)), sim::SymFault);
  EXPECT_THROW((void)a.bin(ir::BinOp::kMod, min, a.cint(-1)), sim::SymFault);
  EXPECT_THROW((void)a.bin(ir::BinOp::kShl, a.cint(1), a.cint(64)),
               sim::SymFault);
  EXPECT_THROW((void)a.bin(ir::BinOp::kShr, a.cint(1), a.cint(-1)),
               sim::SymFault);
  EXPECT_EQ(a.bin(ir::BinOp::kAdd, min, min), a.cint(0));
  EXPECT_EQ(a.bin(ir::BinOp::kSub, min, a.cint(1)),
            a.cint(std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(a.un(ir::UnOp::kNeg, min), min);
}

TEST(SymArena, NormalizeIsReassociationInvariant) {
  sim::SymArena a;
  auto x = a.input(0, 0, ir::ScalarType::kFloat);
  auto y = a.input(0, 1, ir::ScalarType::kFloat);
  auto z = a.input(0, 2, ir::ScalarType::kFloat);
  auto left = a.bin(ir::BinOp::kAdd, a.bin(ir::BinOp::kAdd, x, y), z);
  auto right = a.bin(ir::BinOp::kAdd, x, a.bin(ir::BinOp::kAdd, y, z));
  EXPECT_NE(left, right);  // raw DAGs differ
  EXPECT_EQ(a.normalize(left), a.normalize(right));
}

TEST(SymArena, NormalizeIsCommutationInvariant) {
  sim::SymArena a;
  auto x = a.input(0, 0, ir::ScalarType::kFloat);
  auto y = a.input(0, 1, ir::ScalarType::kFloat);
  EXPECT_EQ(a.normalize(a.bin(ir::BinOp::kMul, x, y)),
            a.normalize(a.bin(ir::BinOp::kMul, y, x)));
}

TEST(SymArena, NormalizeRewritesSubIntoAddNeg) {
  sim::SymArena a;
  auto x = a.input(0, 0, ir::ScalarType::kFloat);
  auto y = a.input(0, 1, ir::ScalarType::kFloat);
  auto sub = a.bin(ir::BinOp::kSub, x, y);
  auto addneg = a.bin(ir::BinOp::kAdd, x,
                      a.bin(ir::BinOp::kMul, a.cint(-1), y));
  EXPECT_EQ(a.normalize(sub), a.normalize(addneg));
}

TEST(SymArena, NormalizeRewritesSelectOverLessIntoMin) {
  sim::SymArena a;
  auto x = a.input(0, 0, ir::ScalarType::kFloat);
  auto y = a.input(0, 1, ir::ScalarType::kFloat);
  auto sel = a.select(a.bin(ir::BinOp::kLt, x, y), x, y);
  auto fmin = a.call(sim::SymFn::kFminf, std::array{x, y});
  EXPECT_EQ(a.normalize(sel), a.normalize(fmin));
  auto selmax = a.select(a.bin(ir::BinOp::kLt, x, y), y, x);
  auto fmax = a.call(sim::SymFn::kFmaxf, std::array{x, y});
  EXPECT_EQ(a.normalize(selmax), a.normalize(fmax));
}

// One-pass AC chains: cost, shape invariance and folding order.

constexpr auto kFloat = ir::ScalarType::kFloat;
constexpr auto kInt = ir::ScalarType::kInt;

/// Storage of an arena: one slot per node plus one per operand.
std::size_t footprint(const sim::SymArena& a) {
  std::size_t n = 0;
  for (std::uint32_t id = 0; id < a.size(); ++id) n += 1 + a.kids(id).size();
  return n;
}

enum class Shape { kLeftDeep, kRightDeep, kBalanced };

/// Combines xs[lo, hi) with `op` in the given tree shape.
template <typename Op>
std::uint32_t build_chain(const std::vector<std::uint32_t>& xs, std::size_t lo,
                          std::size_t hi, Shape shape, Op op) {
  if (hi - lo == 1) return xs[lo];
  std::size_t mid = shape == Shape::kLeftDeep    ? hi - 1
                    : shape == Shape::kRightDeep ? lo + 1
                                                 : lo + (hi - lo) / 2;
  return op(build_chain(xs, lo, mid, shape, op),
            build_chain(xs, mid, hi, shape, op));
}

TEST(SymArena, LongChainsNormalizeInLinearSpace) {
  // Normalizing every prefix of a length-N reduction as its own n-ary
  // node costs about N^2/2 operands; one walk per chain stays linear.
  constexpr std::size_t kN = 4096;
  for (bool fmin : {false, true}) {
    SCOPED_TRACE(fmin ? "fminf chain" : "+ chain");
    sim::SymArena a;
    std::vector<std::uint32_t> xs;
    for (std::size_t i = 0; i < kN; ++i)
      xs.push_back(a.input(0, static_cast<std::int64_t>(i), kFloat));
    auto chain = build_chain(
        xs, 0, kN, Shape::kLeftDeep, [&](std::uint32_t p, std::uint32_t q) {
          return fmin ? a.call(sim::SymFn::kFminf, std::array{p, q})
                      : a.bin(ir::BinOp::kAdd, p, q);
        });
    const std::size_t before = footprint(a);
    const std::uint32_t norm = a.normalize(chain);
    EXPECT_LT(footprint(a) - before, 3 * kN);
    EXPECT_EQ(a.node(norm).kind, sim::SymKind::kNary);
    EXPECT_EQ(a.kids(norm).size(), kN);
  }
}

TEST(SymArena, ChainShapesNormalizeToOneId) {
  sim::SymArena a;
  std::vector<std::uint32_t> xs;
  for (int i = 0; i < 37; ++i) {
    // Small exact constants (and repeats, for min/max dedupe) among the
    // leaves: every shape folds them to the same value.
    if (i % 9 == 4)
      xs.push_back(a.cfloat(i % 2 ? 2.0 : 0.5));
    else if (i % 11 == 7)
      xs.push_back(xs.front());
    else
      xs.push_back(a.input(0, i, kFloat));
  }
  using Combine = std::function<std::uint32_t(std::uint32_t, std::uint32_t)>;
  const std::vector<std::pair<const char*, Combine>> ops = {
      {"+", [&](auto p, auto q) { return a.bin(ir::BinOp::kAdd, p, q); }},
      {"*", [&](auto p, auto q) { return a.bin(ir::BinOp::kMul, p, q); }},
      {"fminf",
       [&](auto p, auto q) {
         return a.call(sim::SymFn::kFminf, std::array{p, q});
       }},
      {"fmaxf",
       [&](auto p, auto q) {
         return a.call(sim::SymFn::kFmaxf, std::array{p, q});
       }},
      {"min",
       [&](auto p, auto q) {
         return a.call(sim::SymFn::kMin, std::array{p, q});
       }},
  };
  for (const auto& [name, op] : ops) {
    SCOPED_TRACE(name);
    std::uint32_t left = build_chain(xs, 0, xs.size(), Shape::kLeftDeep, op);
    std::uint32_t right = build_chain(xs, 0, xs.size(), Shape::kRightDeep, op);
    std::uint32_t bal = build_chain(xs, 0, xs.size(), Shape::kBalanced, op);
    EXPECT_NE(left, right);
    EXPECT_NE(left, bal);
    EXPECT_EQ(a.normalize(left), a.normalize(right));
    EXPECT_EQ(a.normalize(left), a.normalize(bal));
  }
}

TEST(SymArena, SharedMinMaxChainsWalkEachNodeOnce) {
  // m = fmaxf(m, m) 64 times: every level reaches the one below along
  // two paths, so walking per path would visit 2^64 leaves. max and
  // fmaxf spell one chain; the tower collapses to m.
  constexpr int kLevels = 64;
  sim::SymArena a;
  const auto m = a.input(0, 0, kFloat);
  const auto x = a.input(0, 1, kFloat);
  auto tower = [&](std::uint32_t base, sim::SymFn even, sim::SymFn odd) {
    std::uint32_t t = base;
    for (int i = 0; i < kLevels; ++i)
      t = a.call(i % 2 ? odd : even, std::array{t, t});
    return t;
  };
  const auto max_tower = tower(m, sim::SymFn::kFmaxf, sim::SymFn::kMax);
  const std::size_t before = footprint(a);
  EXPECT_EQ(a.normalize(max_tower), m);
  EXPECT_LT(footprint(a) - before, 8u);

  // Inside a + chain the tower is one operand.
  EXPECT_EQ(a.normalize(a.bin(ir::BinOp::kAdd, x, max_tower)),
            a.normalize(a.bin(ir::BinOp::kAdd, x, m)));

  // A constant under the shared levels survives the collapse.
  const auto min_tower =
      tower(a.call(sim::SymFn::kFminf, std::array{m, a.cfloat(2.0)}),
            sim::SymFn::kMin, sim::SymFn::kFminf);
  EXPECT_EQ(a.normalize(min_tower),
            a.normalize(
                a.call(sim::SymFn::kFminf, std::array{m, a.cfloat(2.0)})));

  // A level reached again still folds its constant there. min keeps a
  // NaN it starts from and ignores one that comes later, so s's 1.0f
  // is lost under the NaN but folds in on the path through (s min x).
  auto fmin = [&](auto p, auto q) {
    return a.call(sim::SymFn::kFminf, std::array{p, q});
  };
  const auto s = fmin(m, a.cfloat(1.0));
  const auto qnan = a.cfloat(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(a.normalize(fmin(fmin(a.cfloat(5.0), fmin(qnan, s)), fmin(s, x))),
            a.normalize(fmin(fmin(m, x), a.cfloat(1.0))));
}

TEST(SymArena, ChainConstantsFoldNodeByNode) {
  sim::SymArena a;
  auto x = a.input(0, 0, kFloat);
  auto y = a.input(0, 1, kFloat);
  auto i = a.input(1, 0, kInt);
  auto add = [&](auto p, auto q) { return a.bin(ir::BinOp::kAdd, p, q); };
  auto fmin = [&](auto p, auto q) {
    return a.call(sim::SymFn::kFminf, std::array{p, q});
  };
  auto norm = [&](std::uint32_t id) { return a.normalize(id); };

  // Constants fold in expression order: 0.5f + 16777216 rounds down to
  // 2^24 before + 1 (a tie, kept even), while 16777216 + 1 is exact int
  // arithmetic that + 0.5f then rounds up.
  EXPECT_EQ(norm(add(add(add(x, a.cfloat(0.5)), a.cint(16777216)), a.cint(1))),
            norm(add(x, a.cfloat(16777216.0))));
  EXPECT_EQ(norm(add(add(add(x, a.cint(16777216)), a.cint(1)), a.cfloat(0.5))),
            norm(add(x, a.cfloat(16777218.0))));

  // Int constants stay int in an int chain; a float one turns the fold
  // (and the chain) float.
  EXPECT_EQ(norm(add(add(i, a.cint(2)), a.cint(3))), norm(add(i, a.cint(5))));
  EXPECT_EQ(norm(add(add(i, a.cint(2)), a.cfloat(0.5))),
            norm(add(i, a.cfloat(2.5))));

  // A neutral constant is dropped at the node that folds it: x + 0.0f
  // loses its 0.0f, so the later int 1 is not promoted to 1.0f.
  EXPECT_EQ(norm(add(add(x, a.cfloat(0.0)), a.cint(1))),
            norm(add(x, a.cint(1))));
  EXPECT_NE(norm(add(add(x, a.cfloat(0.0)), a.cint(1))),
            norm(add(x, a.cfloat(1.0))));

  // -0.0f is neutral for +, also when it comes from x - (-0.0f).
  EXPECT_EQ(norm(add(add(x, a.cfloat(-0.0)), y)), norm(add(x, y)));
  EXPECT_EQ(norm(a.bin(ir::BinOp::kSub, x, a.cfloat(-0.0))), x);

  // min keeps the first of two equal zeros, so the signed zeros fold in
  // encounter order.
  EXPECT_EQ(norm(fmin(fmin(x, a.cfloat(0.0)), a.cfloat(-0.0))),
            norm(fmin(x, a.cfloat(0.0))));
  EXPECT_EQ(norm(fmin(fmin(x, a.cfloat(-0.0)), a.cfloat(0.0))),
            norm(fmin(x, a.cfloat(-0.0))));
  EXPECT_NE(norm(fmin(x, a.cfloat(0.0))), norm(fmin(x, a.cfloat(-0.0))));
}

TEST(SymArena, DeepDagsNormalizeAndEvaluateWithoutHostRecursion) {
  // s = s * 0.5f + x[i]: every + link nests a * chain that nests the
  // previous + chain, so a recursive walk would be 2N frames deep.
  constexpr int kN = 200000;
  sim::SymArena a;
  auto s = a.input(0, 0, kFloat);
  float expect = sim::sym_float_input(1, 0, 0);
  for (int i = 1; i <= kN; ++i) {
    s = a.bin(ir::BinOp::kAdd, a.bin(ir::BinOp::kMul, s, a.cfloat(0.5)),
              a.input(0, i, kFloat));
    expect = expect * 0.5f + sim::sym_float_input(1, 0, i);
  }
  const auto norm = a.normalize(s);
  EXPECT_EQ(a.node(norm).kind, sim::SymKind::kNary);
  EXPECT_EQ(a.kids(norm).size(), 2u);  // (s' * 0.5f) + x[N]
  sim::SymEvaluator ev(a, 1);
  sim::Value v;
  ASSERT_TRUE(ev.eval(s, &v));
  EXPECT_EQ(static_cast<float>(v.as_f()), expect);
  ASSERT_TRUE(ev.eval(norm, &v));
}

TEST(SymArena, NormalizationChargesChainScratchToTheBudget) {
  // s = s + s J times reaches the dot product 2^J times: one operand
  // per path. The budget ends the walk, and the arena stays usable.
  sim::SymArena a;
  auto dot = a.bin(ir::BinOp::kMul, a.input(0, 0, kFloat),
                   a.input(1, 0, kFloat));
  for (int i = 1; i < 8; ++i)
    dot = a.bin(ir::BinOp::kAdd, dot,
                a.bin(ir::BinOp::kMul, a.input(0, i, kFloat),
                      a.input(1, i, kFloat)));
  auto doubled = [&](int j) {
    auto s = dot;
    for (int k = 0; k < j; ++k) s = a.bin(ir::BinOp::kAdd, s, s);
    return s;
  };
  const auto s10 = doubled(10);
  const auto s50 = doubled(50);
  constexpr std::int64_t kBudget = 100000;
  EXPECT_EQ(a.normalize(s50, kBudget), sim::SymArena::kInvalid);
  EXPECT_LE(static_cast<std::int64_t>(a.size()), kBudget);
  // 2^10 paths of 8 products fit the same budget.
  const auto n10 = a.normalize(s10, kBudget);
  ASSERT_NE(n10, sim::SymArena::kInvalid);
  EXPECT_EQ(a.kids(n10).size(), 8u * 1024u);
  EXPECT_EQ(a.normalize(s10), n10);  // memoized
}

TEST(SymArena, RollbackReturnsToTheMarkNodeForNode) {
  sim::SymArena a;
  std::vector<std::uint32_t> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(a.input(0, i, kFloat));
  const auto base =
      build_chain(xs, 0, xs.size(), Shape::kLeftDeep,
                  [&](auto p, auto q) { return a.bin(ir::BinOp::kAdd, p, q); });
  const auto base_norm = a.normalize(base);
  const auto older = a.bin(ir::BinOp::kMul, xs[2], xs[3]);  // not normalized
  a.mark();
  const sim::SymArena fresh = a;
  // What a variant adds: new nodes (enough to grow the index), normal
  // forms of new and of older nodes.
  auto grow = [&](sim::SymArena& arena) {
    auto t = xs.front();
    for (int i = 0; i < 5000; ++i)
      t = arena.bin(ir::BinOp::kMul, t, arena.input(2, i, kFloat));
    return std::pair{t,
                     arena.normalize(arena.bin(ir::BinOp::kAdd, t, older))};
  };
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    (void)a.normalize(build_chain(
        xs, 0, xs.size(), Shape::kBalanced,
        [&](auto p, auto q) { return a.bin(ir::BinOp::kAdd, p, q); }));
    (void)grow(a);
    a.rollback();
    EXPECT_EQ(a.size(), fresh.size());
    EXPECT_EQ(a.normalize(base), base_norm);
    // The same additions get the same ids as in a copy of the mark.
    sim::SymArena copy = fresh;
    EXPECT_EQ(grow(a), grow(copy));
    EXPECT_EQ(a.size(), copy.size());
    a.rollback();
  }
}

TEST(SymArena, LeavesAndConstantsStayHashConsed) {
  // Input leaves and int constants live in dense tables, float constants
  // behind a direct-mapped cache, the rest in the hashed index. Each
  // must still give one id per distinct node, whichever lookup finds it.
  sim::SymArena a;
  // One (param, elem) as two types: two leaves, each found again.
  const auto f = a.input(0, 3, kFloat);
  const auto i = a.input(0, 3, kInt);
  EXPECT_NE(f, i);
  EXPECT_EQ(a.node(f).type, kFloat);
  EXPECT_EQ(a.node(i).type, kInt);
  EXPECT_EQ(a.input(0, 3, kFloat), f);
  EXPECT_EQ(a.input(0, 3, kInt), i);
  // Keys outside the table go through the index.
  const std::vector<std::pair<std::int32_t, std::int64_t>> outside = {
      {-2, 0}, {0, -2}, {0, std::int64_t{1} << 40}, {1 << 20, 0}};
  std::set<std::uint32_t> leaves = {f, i};
  for (const auto& [param, elem] : outside) {
    const auto id = a.input(param, elem, kFloat);
    EXPECT_TRUE(leaves.insert(id).second) << param << " " << elem;
    EXPECT_EQ(a.input(param, elem, kFloat), id);
    EXPECT_EQ(a.node(id).param, param);
    EXPECT_EQ(a.node(id).ival, elem);
  }
  // Ints on both sides of each window edge, by literal and by fold.
  std::set<std::uint32_t> ints;
  for (const std::int64_t v :
       {sim::SymArena::kIntWindowLo - 1, sim::SymArena::kIntWindowLo,
        sim::SymArena::kIntWindowHi - 1, sim::SymArena::kIntWindowHi}) {
    const auto id = a.cint(v);
    EXPECT_TRUE(ints.insert(id).second) << v;
    EXPECT_EQ(a.node(id).ival, v);
    EXPECT_EQ(a.cint(v), id);
    EXPECT_EQ(a.bin(ir::BinOp::kAdd, a.cint(v - 1), a.cint(1)), id) << v;
  }
  // More floats than cache slots: colliding slots still give one id per
  // bit pattern. -0.0 is not 0.0; a NaN is itself.
  std::vector<std::uint32_t> floats;
  for (int k = 0; k < 20000; ++k) floats.push_back(a.cfloat(k * 0.5 - 7.25));
  for (int k = 0; k < 20000; ++k) {
    ASSERT_EQ(a.cfloat(k * 0.5 - 7.25), floats[static_cast<std::size_t>(k)]);
    EXPECT_EQ(a.node(floats[static_cast<std::size_t>(k)]).fval,
              k * 0.5 - 7.25);
  }
  EXPECT_EQ(std::set<std::uint32_t>(floats.begin(), floats.end()).size(),
            floats.size());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(a.cfloat(-0.0), a.cfloat(0.0));
  EXPECT_EQ(a.cfloat(-0.0), a.cfloat(-0.0));
  EXPECT_EQ(a.cfloat(nan), a.cfloat(nan));
  EXPECT_NE(a.cfloat(nan), a.cfloat(-nan));
  EXPECT_EQ(a.cfloat(-nan), a.cfloat(-nan));

  // Made after the mark, rolled back, made again in another order: the
  // ids are those of an arena copied at the mark.
  a.mark();
  const sim::SymArena at_mark = a;
  auto make = [](sim::SymArena& arena, bool reversed) {
    std::vector<std::uint32_t> ids;
    auto add = [&](int k) {
      switch (k) {
        case 0: return arena.cint(777);
        case 1: return arena.cint(sim::SymArena::kIntWindowHi + 5);
        case 2: return arena.cfloat(1234.5);
        case 3: return arena.input(5, 9, kFloat);
        default: return arena.input(5, 9, kInt);
      }
    };
    for (int k = 0; k < 5; ++k) ids.push_back(add(reversed ? 4 - k : k));
    return ids;
  };
  (void)make(a, false);
  a.rollback();
  EXPECT_EQ(a.size(), at_mark.size());
  sim::SymArena copy = at_mark;
  EXPECT_EQ(make(a, true), make(copy, true));
  EXPECT_EQ(a.size(), copy.size());
}

// ---------------------------------------------------------------------
// Certificate serialization.

TEST(Certificate, JsonRoundTripIsExact) {
  Certificate c;
  c.kernel = "tmv";
  c.config = "inter-warp slave=4 \"quoted\"";
  c.verdict = Verdict::kRefuted;
  c.counterexample_seed = 3;
  c.geometry = "grid 2x1x1 block 8x1x1";
  c.detail = "output 'c[0]' differs: line1\nline2";
  auto back = Certificate::from_json(c.json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->json(), c.json());
  EXPECT_EQ(back->verdict, Verdict::kRefuted);
  EXPECT_EQ(back->counterexample_seed, 3u);
  EXPECT_EQ(back->detail, c.detail);
  EXPECT_FALSE(Certificate::from_json("{\"verdict\":\"bogus\"}").has_value());
  EXPECT_FALSE(Certificate::from_json("not json").has_value());
}

TEST(Certificate, VerdictStringsRoundTrip) {
  for (const auto& row : np::kVerdictSlugs) {
    EXPECT_STREQ(np::to_string(row.value), row.text);
    auto back = record::from_slug(np::kVerdictSlugs, row.text);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, row.value);
  }
  EXPECT_FALSE(
      record::from_slug(np::kVerdictSlugs, "almost-proven").has_value());
}

// ---------------------------------------------------------------------
// Certifying small hand-written kernels.

constexpr const char* kDotSrc = R"(
__global__ void k(float* a, float* b, float* c, int w, int h) {
  float sum = 0.0f;
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  #pragma np parallel for reduction(+:sum)
  for (int i = 0; i < h; i++)
    sum += a[i * w + tx] * b[i];
  c[tx] = sum;
}
)";

ir::Kernel& parse_kernel(std::unique_ptr<ir::Program>& holder,
                         const char* src) {
  holder = frontend::parse_program_or_throw(src);
  return *holder->find_kernel("k");
}

TEST(Certifier, ProvesNpReductionVariants) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  auto spec = sim::DeviceSpec::gtx680();
  Certifier certifier(spec);
  int proven = 0;
  for (const auto& cfg : NpCompiler::enumerate_configs(kernel, 8, spec)) {
    SCOPED_TRACE(cfg.describe());
    transform::TransformResult variant;
    try {
      variant = NpCompiler::transform(kernel, cfg);
    } catch (const CompileError&) {
      continue;  // configuration legitimately inapplicable
    }
    Certificate cert =
        np::JobCertifier(certifier, kernel, factory).certify(variant);
    EXPECT_TRUE(cert.proven()) << cert.str();
    proven += cert.proven() ? 1 : 0;
  }
  EXPECT_GT(proven, 0);
}

TEST(Certifier, IntOverflowInTheBaselineIsInconclusiveNotACrash) {
  // Constant folding of INT64_MIN / -1 used to trap the host (SIGFPE);
  // the fault now makes the certificate inconclusive, naming the cause.
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, R"(
__global__ void k(float* a, float* c, int w, int h) {
  int big = -9223372036854775807 - 1;
  int q = big / (0 - 1);
  float sum = 0.0f;
  int tx = threadIdx.x;
  #pragma np parallel for reduction(+:sum)
  for (int i = 0; i < h; i++)
    sum += a[i * w + tx];
  c[tx] = sum + q;
}
)");
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  auto spec = sim::DeviceSpec::gtx680();
  Certifier certifier(spec);
  int certified = 0;
  for (const auto& cfg : NpCompiler::enumerate_configs(kernel, 8, spec)) {
    SCOPED_TRACE(cfg.describe());
    transform::TransformResult variant;
    try {
      variant = NpCompiler::transform(kernel, cfg);
    } catch (const CompileError&) {
      continue;
    }
    Certificate cert =
        np::JobCertifier(certifier, kernel, factory).certify(variant);
    EXPECT_EQ(cert.verdict, Verdict::kInconclusive) << cert.str();
    EXPECT_NE(cert.str().find("integer division overflow"), std::string::npos)
        << cert.str();
    ++certified;
  }
  EXPECT_GT(certified, 0);
}

// A baseline that calls __shfl itself, then an 8-trip NP reduction.
constexpr const char* kUserShflSrc = R"(
__global__ void k(float* a, float* out) {
  int tx = threadIdx.x;
  float w = __shfl(a[tx], 0, 32);
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 8; i++)
    s += a[tx * 8 + i];
  out[tx] = s + w;
}
)";

TEST(Certifier, ShflBaselineOnAnSm20DeviceIsInconclusive) {
  // The VM refuses __shfl below sm_30, so no variant of this kernel can
  // be proven on such a device. Symexec used to ignore the sm version
  // and prove the five inter-warp variants.
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kUserShflSrc);
  auto factory = [&] { return np::make_synthetic_workload(kernel, 32, 32); };
  auto spec = sim::DeviceSpec::gtx680();
  spec.sm_version = 20;
  Certifier certifier(spec);
  const auto configs = NpCompiler::enumerate_configs(kernel, 32, spec);
  EXPECT_EQ(configs.size(), 5u);
  for (const auto& cfg : configs) {
    SCOPED_TRACE(cfg.describe());
    const Certificate cert = certifier.certify(kernel, cfg, factory);
    EXPECT_EQ(cert.verdict, Verdict::kInconclusive) << cert.str();
    EXPECT_EQ(cert.detail,
              "baseline: __shfl requires sm_30+ (device is sm_20)");
  }
}

TEST(SymExec, LaunchChecksAreTheVmsOwn) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kUserShflSrc);
  std::vector<sim::SymArg> args(2);
  for (auto& arg : args) {
    arg.kind = sim::SymArg::Kind::kBufferSymbolic;
    arg.type = ir::ScalarType::kFloat;
    arg.elems = 4096;
  }
  const auto spec = sim::DeviceSpec::gtx680();
  auto run = [&](sim::Dim3 grid, sim::Dim3 block) {
    sim::SymArena arena;
    return sim::sym_execute(spec, kernel, grid, block, args, arena);
  };
  const auto zero = run({1, 1, 1}, {0, 1, 1});
  EXPECT_FALSE(zero.ok);
  EXPECT_TRUE(zero.fault);
  EXPECT_EQ(zero.reason,
            "invalid launch: block dimensions (0,1,1) must all be positive");
  const auto big = run({1, 1, 1}, {2048, 1, 1});
  EXPECT_TRUE(big.fault);
  EXPECT_EQ(big.reason,
            "invalid launch: block size 2048 exceeds the device limit of "
            "1024 threads");
  args.pop_back();
  const auto arity = run({1, 1, 1}, {32, 1, 1});
  EXPECT_TRUE(arity.fault);
  EXPECT_EQ(arity.reason, "kernel 'k' expects 2 args, got 1");
}

TEST(SymExec, TernaryOfABoolElementAndAnIntIsInt) {
  // A bool array element read at a symbolic index is an int lane, like
  // the int arm, so `?:` stays int and `/ 2` truncates as the interpreter
  // computes (flags[0] is 1, so a float common type would give 0.5).
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, R"(
__global__ void k(float* a, float* c) {
  int tx = threadIdx.x;
  bool flags[4];
  for (int i = 0; i < 4; i++) flags[i] = i < 2;
  int j = (int)a[tx];
  c[tx] = (tx > 0 ? flags[j & 3] : 3) / 2;
}
)");
  std::vector<sim::SymArg> args(2);
  for (auto& arg : args) {
    arg.kind = sim::SymArg::Kind::kBufferSymbolic;
    arg.type = ir::ScalarType::kFloat;
    arg.elems = 2;
  }
  sim::SymArena arena;
  const auto r =
      sim::sym_execute(sim::DeviceSpec::gtx680(), kernel, {1, 1, 1},
                       {2, 1, 1}, args, arena);
  ASSERT_TRUE(r.ok) << r.reason;
  sim::Value v;
  ASSERT_TRUE(arena.constant(r.buffers[1][0], &v));  // 3 / 2
  EXPECT_EQ(v.as_f(), 1.0);
  ASSERT_FALSE(arena.constant(r.buffers[1][1], &v));  // a gather
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::SymEvaluator eval(arena, seed);
    ASSERT_TRUE(eval.eval(r.buffers[1][1], &v));
    EXPECT_EQ(v.as_f(), 0.0) << "seed " << seed;  // flags[0] / 2
  }
}

TEST(Certifier, SkewedStoreIndexIsRefutedWithReplay) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  auto spec = sim::DeviceSpec::gtx680();
  auto configs = NpCompiler::enumerate_configs(kernel, 8, spec);
  ASSERT_FALSE(configs.empty());
  int refuted = 0;
  for (const auto& cfg : configs) {
    transform::TransformResult variant;
    try {
      variant = NpCompiler::transform(kernel, cfg);
    } catch (const CompileError&) {
      continue;
    }
    SCOPED_TRACE(cfg.describe());
    sim::FaultPlan plan;
    plan.skew_index = true;
    sim::FaultInjector injector(plan);
    ASSERT_TRUE(injector.corrupt_kernel(*variant.kernel));
    Certificate cert =
        np::JobCertifier(Certifier(spec), kernel, factory).certify(variant);
    // A skewed store lands out of bounds or on the wrong cell; either
    // way the certifier may only call it refuted with interpreter
    // evidence — and must never call it proven.
    EXPECT_FALSE(cert.proven()) << cert.str();
    if (cert.verdict == Verdict::kRefuted) {
      ++refuted;
      EXPECT_NE(cert.detail.find("replay"), std::string::npos) << cert.str();
    }
  }
  EXPECT_GT(refuted, 0);
}

TEST(Certifier, DroppedBarrierIsFlaggedOnTheCertificate) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  // 16-thread baseline so slave-sliced blocks span several warps: a
  // dropped __syncthreads in a single-warp block is invisible (warps
  // are lockstep), so only multi-warp variants make a meaningful test.
  auto factory = [&] { return np::make_synthetic_workload(kernel, 16, 16); };
  auto spec = sim::DeviceSpec::gtx680();
  int corrupted = 0;
  for (const auto& cfg : NpCompiler::enumerate_configs(kernel, 16, spec)) {
    transform::TransformResult variant;
    try {
      variant = NpCompiler::transform(kernel, cfg);
    } catch (const CompileError&) {
      continue;
    }
    if (variant.block_dims.count() <= 32) continue;  // single warp
    SCOPED_TRACE(cfg.describe());
    sim::FaultPlan plan;
    plan.drop_barrier = true;
    sim::FaultInjector injector(plan);
    if (!injector.corrupt_kernel(*variant.kernel))
      continue;  // this variant has no barrier to drop
    ++corrupted;
    Certificate cert =
        np::JobCertifier(Certifier(spec), kernel, factory).certify(variant);
    // Under the simulator's lockstep contract a dropped barrier leaves
    // the values bit-identical (the documented execution model orders
    // the handoff deterministically), so the verdict stays a proof —
    // but the certificate must carry the portable-model race note so
    // the hazard is never silently absorbed.
    if (cert.proven())
      EXPECT_NE(cert.detail.find("portable-model race"), std::string::npos)
          << cert.str();
  }
  EXPECT_GT(corrupted, 0);
}

/// Certifies every applicable config of `kernel` through one
/// JobCertifier over an elems x elems synthetic workload.
std::vector<Certificate> certify_all(const ir::Kernel& kernel, int elems) {
  auto spec = sim::DeviceSpec::gtx680();
  const Certifier certifier(spec);
  auto factory = [&] {
    return np::make_synthetic_workload(kernel, elems, elems);
  };
  np::JobCertifier job(certifier, kernel, factory);
  std::vector<Certificate> certs;
  for (const auto& cfg : NpCompiler::enumerate_configs(kernel, elems, spec)) {
    try {
      certs.push_back(job.certify(NpCompiler::transform(kernel, cfg)));
    } catch (const CompileError&) {
      // configuration legitimately inapplicable
    }
  }
  EXPECT_FALSE(certs.empty());
  return certs;
}

TEST(SymArena, RecycledStorageIsInvisible) {
  // A destroyed arena leaves its storage to the next arena on its
  // thread. Whether that storage held an earlier job, or the thread is
  // new, must not show in a certificate, an arena size or a normal form.
  std::unique_ptr<ir::Program> prog;
  const ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto job = [&] {
    std::vector<std::string> out;
    for (const Certificate& c : certify_all(kernel, 32))
      out.push_back(c.json());
    std::vector<sim::SymArg> args(5);
    for (std::size_t p = 0; p < 3; ++p) {
      args[p].kind = sim::SymArg::Kind::kBufferSymbolic;
      args[p].type = kFloat;
      args[p].elems = 32 * 32;
    }
    for (std::size_t p = 3; p < 5; ++p)
      args[p].scalar = sim::Value::of_int(32);
    sim::SymArena arena;
    const auto run = sim::sym_execute(sim::DeviceSpec::gtx680(), kernel,
                                      {1, 1, 1}, {32, 1, 1}, args, arena);
    EXPECT_TRUE(run.ok) << run.reason;
    for (const auto cell : run.buffers[2])
      out.push_back(std::to_string(arena.normalize(cell)));
    out.push_back("size " + std::to_string(arena.size()));
    return out;
  };
  const auto first = job();
  const auto second = job();  // in the storage the first job left
  std::vector<std::string> fresh;
  std::thread([&] { fresh = job(); }).join();
  EXPECT_EQ(second, first);
  EXPECT_EQ(fresh, first);
}

TEST(Certifier, DeepReductionChainCertifies) {
  // A 100000-link reduction chain per output cell: a normalization that
  // recursed once per link overflowed the host stack (SIGSEGV, which
  // killed the serve daemon too while it certified in-process).
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, R"(
__global__ void k(float* a, float* c) {
  float sum = 0.0f;
  int tx = threadIdx.x;
  #pragma np parallel for reduction(+:sum)
  for (int i = 0; i < 100000; i++)
    sum += a[(i + tx) % 64];
  c[tx] = sum;
}
)");
  for (const Certificate& cert : certify_all(kernel, 8))
    EXPECT_EQ(cert.verdict, Verdict::kProvenModuloReassoc) << cert.str();
}

TEST(Certifier, DoublingChainIsInconclusiveWithinTheNodeBudget) {
  // After the reduction, s = s + s 50 times: normalized, the chain has
  // 8 * 2^50 operands. The node budget ends the walk.
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, R"(
__global__ void k(float* a, float* b, float* c, int w, int h) {
  float s = 0.0f;
  int tx = threadIdx.x;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < h; i++)
    s += a[i * w + tx] * b[i];
  for (int j = 0; j < 50; j++)
    s = s + s;
  c[tx] = s;
}
)");
  for (const Certificate& cert : certify_all(kernel, 8)) {
    EXPECT_EQ(cert.verdict, Verdict::kInconclusive) << cert.str();
    EXPECT_EQ(cert.detail,
              "normalization expression budget of 8000000 nodes exhausted");
  }
}

// ---------------------------------------------------------------------
// The symbolic executor resolves names through the slot binder, like the
// VM and the AST walker: a declaration that shadows a parameter is a
// variable of its own, visible only in its scope.

/// `float n` shadows the int parameter inside the NP loop; the final
/// read is the parameter's.
constexpr const char* kShadowInLoopSrc = R"(
__global__ void k(float* a, float* out, int n) {
  float s = 0.0f;
  int tx = threadIdx.x;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 16; i++) {
    float n = a[tx * 16 + i];
    s += n;
  }
  out[tx] = s + n;
}
)";

/// `float n` shadows the parameter in a branch taken by some lanes only.
constexpr const char* kShadowInBranchSrc = R"(
__global__ void k(float* a, float* out, int n) {
  float s = 0.0f;
  int tx = threadIdx.x;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 16; i++)
    s += a[tx * 16 + i];
  if (tx < 8) {
    float n = 0.5f;
    s = s * n;
  }
  out[tx] = s + n;
}
)";

/// Sources for the scoping cases below: `float t` shadows a local of the
/// same type (in a loop body, then in a branch), `y` is read outside its
/// scope (after its block, then before its declaration), and `int x = x
/// + 1;` reads the new, unset x.
constexpr const char* kSameTypeShadowInLoopSrc = R"(
__global__ void k(float* a, float* out, int n) {
  float s = 0.0f;
  float t = 1.0f;
  int tx = threadIdx.x;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 16; i++) {
    float t = a[tx * 16 + i];
    s += t;
  }
  out[tx] = s + t;
}
)";

constexpr const char* kSameTypeShadowInBranchSrc = R"(
__global__ void k(float* a, float* out, int n) {
  float s = 0.0f;
  float t = 1.0f;
  int tx = threadIdx.x;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 16; i++)
    s += a[tx * 16 + i];
  if (tx < 8) {
    float t = 0.5f;
    s = s * t;
  }
  out[tx] = s + t;
}
)";

constexpr const char* kDeadScopeReadSrc = R"(
__global__ void k(float* a, float* out, int n) {
  float s = 0.0f;
  int tx = threadIdx.x;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 16; i++)
    s += a[tx * 16 + i];
  if (tx < 8) {
    float y = 0.5f;
    s = s * y;
  }
  out[tx] = s + y;
}
)";

constexpr const char* kForwardReferenceSrc = R"(
__global__ void k(float* a, float* out, int n) {
  float s = 0.0f;
  int tx = threadIdx.x;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 16; i++) {
    s += a[tx * 16 + i] + y;
    float y = 1.0f;
  }
  out[tx] = s;
}
)";

constexpr const char* kSelfInitializerSrc = R"(
__global__ void k(float* a, float* out, int n) {
  float s = 0.0f;
  int tx = threadIdx.x;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 16; i++)
    s += a[tx * 16 + i];
  int x = x + 1;
  out[tx] = s + x;
}
)";

TEST(Certifier, ShadowingDeclarationsFollowTheEngines) {
  // The symbolic frame follows C block scoping like the VM: an inner
  // declaration hides the outer variable only inside its scope, so every
  // shadowing kernel proves. A name out of scope, or read by its own
  // initializer, leaves the baseline unprovable: inconclusive, naming
  // the cause.
  struct Case {
    const char* src;
    Verdict verdict;
    const char* detail;
  };
  const Case cases[] = {
      {kShadowInLoopSrc, Verdict::kProvenModuloReassoc, ""},
      {kShadowInBranchSrc, Verdict::kProvenModuloReassoc, ""},
      {kSameTypeShadowInLoopSrc, Verdict::kProvenModuloReassoc, ""},
      {kSameTypeShadowInBranchSrc, Verdict::kProvenModuloReassoc, ""},
      {kDeadScopeReadSrc, Verdict::kInconclusive,
       "use of undeclared variable 'y'"},
      {kForwardReferenceSrc, Verdict::kInconclusive,
       "use of undeclared variable 'y'"},
      {kSelfInitializerSrc, Verdict::kInconclusive,
       "read of uninitialized variable 'x'"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.src);
    std::unique_ptr<ir::Program> prog;
    ir::Kernel& kernel = parse_kernel(prog, c.src);
    const auto certs = certify_all(kernel, 32);
    EXPECT_EQ(certs.size(), 10u);
    for (const Certificate& cert : certs) {
      EXPECT_EQ(cert.verdict, c.verdict) << cert.str();
      EXPECT_NE(cert.detail.find(c.detail), std::string::npos) << cert.str();
    }
  }
}

TEST(SymExec, BaselineAtASeedMatchesTheVm) {
  // The symbolic baseline, evaluated at one counterexample seed, is what
  // the VM computes from the inputs that seed materializes: scoping,
  // geometry and every math builtin resolve the same way in both.
  constexpr const char* kBuiltinsSrc = R"(
__global__ void k(float* a, float* out, int n) {
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  float s = 0.0f;
  for (int i = 0; i < 4; i++) {
    float n = a[tx * 4 + i];
    s += sqrtf(fabsf(n)) + fminf(n, 0.25f) * powf(fabsf(n), 1.5f);
  }
  int t = min(tx, n) + abs(tx - 8) + gridDim.x;
  if (tx < 8) {
    float t = expf(s * 0.1f);
    s = s * t + floorf(s) + rsqrtf(1.0f + fabsf(s)) + sinf(s) + cosf(s);
    s = fmaxf(s, logf(1.0f + fabsf(s)));
  }
  out[tx] = s + t + max(n, tx);
}
)";
  constexpr std::uint64_t kSeed = 3;
  for (const char* src : {kShadowInLoopSrc, kShadowInBranchSrc, kBuiltinsSrc}) {
    SCOPED_TRACE(src);
    std::unique_ptr<ir::Program> prog;
    ir::Kernel& kernel = parse_kernel(prog, src);
    np::Workload w = np::make_synthetic_workload(kernel, 16, 8);
    // The certifier's abstraction of the workload: float buffers become
    // input leaves, the int scalar stays concrete.
    std::vector<sim::SymArg> args(3);
    for (int i = 0; i < 2; ++i) {
      args[i].kind = sim::SymArg::Kind::kBufferSymbolic;
      args[i].type = ir::ScalarType::kFloat;
      args[i].elems = 16 * 16;
    }
    args[2].scalar = std::get<sim::Value>(w.launch.args[2]);
    sim::SymArena arena;
    const auto sym = sim::sym_execute(sim::DeviceSpec::gtx680(), kernel,
                                      w.launch.grid, w.launch.block, args,
                                      arena);
    ASSERT_TRUE(sym.ok) << sym.reason;

    np::seed_certify_floats(w, kSeed);
    const auto run = np::Runner(sim::DeviceSpec::gtx680())
                         .execute(np::ExecutionRequest::baseline(kernel, w));
    ASSERT_TRUE(run.clean());
    const auto out = w.mem->buffer(std::get<sim::BufferId>(w.launch.args[1]))
                         .f32();
    // Cells the kernel never writes keep their input leaves, which the
    // seed fills exactly as it filled the VM's buffer.
    ASSERT_EQ(sym.buffers[1].size(), out.size());
    sim::SymEvaluator eval(arena, kSeed);
    for (std::size_t e = 0; e < out.size(); ++e) {
      sim::Value v;
      ASSERT_TRUE(eval.eval(sym.buffers[1][e], &v)) << "cell " << e;
      EXPECT_EQ(static_cast<float>(v.as_f()), out[e]) << "cell " << e;
    }
  }
}

TEST(Certifier, AstMutatedAfterBindingIsInconclusive) {
  // A statement added after the kernel was bound carries no slot
  // annotations (kSlotUnbound). The symbolic executor must not guess a
  // binding for it by name: the baseline aborts and every certificate is
  // inconclusive, naming the cause.
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  (void)sim::bind_kernel(kernel);
  std::unique_ptr<ir::Program> donor;
  ir::Kernel& extra = parse_kernel(donor, R"(
__global__ void k(float* a, float* b, float* c, int w, int h) {
  float sum = 0.0f;
  int tx = threadIdx.x;
  c[tx] = sum;
}
)");
  kernel.body->stmts.push_back(std::move(extra.body->stmts.back()));
  for (const Certificate& cert : certify_all(kernel, 8)) {
    EXPECT_EQ(cert.verdict, Verdict::kInconclusive) << cert.str();
    EXPECT_EQ(cert.detail,
              "baseline: " + sim::unbound_ref_message("sum")) << cert.str();
  }
}

// ---------------------------------------------------------------------
// One rulebook for structural errors: the binder decides which kernels
// cannot run at all (sim/binder.hpp), and the VM and the certifier both
// raise its text. One kernel per rule: the VM's error is the reason of
// every certificate, and no certificate is proven.

struct StructuralCase {
  const char* name;
  /// Spliced into the kernel below, at line 4, before an 8-trip NP
  /// reduction.
  const char* stmt;
  /// The VM's error.
  const char* error;
  /// Applied to the parsed kernel first, for shapes the parser does not
  /// produce.
  void (*mutate)(ir::Kernel&) = nullptr;
};

void PrintTo(const StructuralCase& c, std::ostream* os) { *os << c.name; }

ir::DeclStmt& find_decl(ir::Kernel& kernel, const std::string& name) {
  for (auto& st : kernel.body->stmts)
    if (st->kind() == ir::StmtKind::kDecl &&
        static_cast<ir::DeclStmt&>(*st).name == name)
      return static_cast<ir::DeclStmt&>(*st);
  throw std::runtime_error("no declaration of " + name);
}

const StructuralCase kStructuralCases[] = {
    {"UnknownCallee", "float u = foo(a[tx]);",
     "unknown function 'foo' at 4:13"},
    {"UnaryBuiltinArity", "float u = sqrtf(a[tx], 1.0f);",
     "sqrtf expects 1 argument at 4:13"},
    {"BinaryBuiltinArity", "float u = fminf(a[tx]);",
     "fminf expects 2 arguments at 4:13"},
    {"ShflArity", "float u = __shfl(a[tx], 0);",
     "__shfl expects (var, lane, width) at 4:13"},
    {"ArrayBaseNotAVariable", "float u = (a + 1)[0];",
     "array base must be a variable at 4:16"},
    {"PointerIndexCount", "float u = a[0][1];",
     "pointer 'a' requires exactly one index"},
    {"IndexedScalar", "float t = 1.0f; float u = t[0];",
     "'t' is not an array at 4:29"},
    {"IndexedUniformParameter", "float u = n[0];",
     "'n' is not an array at 4:13"},
    {"IndexedLocalPointerStore", "float* p; p[0] = 1.0f;",
     "'p' is not an array at 4:13"},
    {"IndexedLocalPointerLoad", "float* p; float u = p[tx];",
     "'p' is not an array at 4:23"},
    {"IndexedGeometry", "float u = threadIdx.x[0];",
     "use of undeclared variable 'threadIdx.x' at 4:13"},
    {"DimensionCount", "float w[4]; w[0][1] = 1.0f;",
     "array 'w' has 1 dims, indexed with 2 at 4:15"},
    {"UnsupportedAddressSpace", "float g[4]; g[0] = 1.0f;",
     "unsupported address space for array 'g'",
     [](ir::Kernel& k) {
       find_decl(k, "g").type.space = ir::AddrSpace::kGlobal;
     }},
    {"InvalidAssignmentTarget", "float u = 0.0f; u = 1.0f;",
     "invalid assignment target at 4:19",
     [](ir::Kernel& k) {
       for (auto& st : k.body->stmts)
         if (st->kind() == ir::StmtKind::kAssign)
           static_cast<ir::AssignStmt&>(*st).lhs =
               std::make_unique<ir::IntLit>(1);
     }},
    {"AssignToPointer", "a = 0;", "cannot assign to 'a' without an index"},
    {"AssignToLocalPointer", "float* p; p = 0;",
     "cannot assign to 'p' without an index"},
    {"AssignToArray", "float w[2]; w = 1.0f;",
     "cannot assign to 'w' without an index"},
    {"AssignToUniformParameter", "n = 3;",
     "cannot assign to kernel parameter 'n' (treated as uniform)"},
    {"AssignToGeometry", "threadIdx.x = 1;",
     "use of undeclared variable 'threadIdx.x' at 4:3"},
    {"ArrayAsValue", "float w[2]; float u = w + 1.0f;",
     "array 'w' used without an index"},
    {"PointerAsValue", "float u = a + 1;",
     "pointer 'a' used as a value (only indexing is supported)"},
    {"LocalPointerAsValue", "float* p; float u = p + 1;",
     "pointer 'p' used as a value (only indexing is supported)"},
    {"UndeclaredName", "float u = q;", "use of undeclared variable 'q' at 4:13"},
    {"SharedScalar", "__shared__ float sh;",
     "unsupported construct: shared-memory scalar 'sh' at 4:3; declare a "
     "one-element __shared__ array instead"},
    {"VoidVariable", "void v;",
     "unsupported construct: void variable 'v' at 4:3"},
    {"SharedArrayInitializer", "__shared__ float w[2] = {1.0f, 2.0f};",
     "unsupported construct: initializer on __shared__ array 'w' at 4:3; "
     "shared memory takes no initializer"},
    {"TooManyInitializers", "__constant__ float w[2] = {1.0f, 2.0f, 3.0f};",
     "too many initializers for 'w'"},
    {"ArrayExpressionInitializer", "float w[2] = 1.0f;",
     "array initializers are not supported at 4:3"},
    {"Break", "for (int j = 0; j < 2; j++) { break; }",
     "break/continue are not supported by the simulator; use a guarding if "
     "(paper Sec. 3.7 padding uses `if (i < n)`)"},
    {"Continue", "for (int j = 0; j < 2; j++) { continue; }",
     "break/continue are not supported by the simulator; use a guarding if "
     "(paper Sec. 3.7 padding uses `if (i < n)`)"},
    {"UnboundDeclaration", "",
     "internal: unbound declaration of 'extra' (kernel AST modified after "
     "slot binding)",
     [](ir::Kernel& k) {
       (void)sim::bind_kernel(k);
       k.body->stmts.insert(
           k.body->stmts.begin(),
           std::make_unique<ir::DeclStmt>(
               ir::Type::scalar_of(ir::ScalarType::kInt), "extra"));
     }},
};

class StructuralErrors : public ::testing::TestWithParam<StructuralCase> {};

TEST_P(StructuralErrors, VmAndCertifierRaiseTheSameText) {
  const StructuralCase& c = GetParam();
  auto prog = frontend::parse_program_or_throw(std::string(R"(
__global__ void k(float* a, float* out, int n) {
  int tx = threadIdx.x;
  )") + c.stmt + R"(
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 8; i++)
    s += a[tx * 8 + i];
  out[tx] = s;
}
)");
  ir::Kernel& kernel = *prog->find_kernel("k");
  if (c.mutate) c.mutate(kernel);
  std::string vm_error;
  np::Workload w = np::make_synthetic_workload(kernel, 32, 32);
  try {
    (void)np::Runner(sim::DeviceSpec::gtx680())
        .execute(np::ExecutionRequest::baseline(kernel, w));
  } catch (const SimError& e) {
    vm_error = e.what();
  }
  EXPECT_EQ(vm_error, c.error);
  for (const Certificate& cert : certify_all(kernel, 32)) {
    EXPECT_FALSE(cert.proven()) << cert.str();
    EXPECT_EQ(cert.verdict, Verdict::kInconclusive) << cert.str();
    EXPECT_EQ(cert.detail, "baseline: " + vm_error) << cert.str();
  }
}

INSTANTIATE_TEST_SUITE_P(
    BinderRules, StructuralErrors, ::testing::ValuesIn(kStructuralCases),
    [](const ::testing::TestParamInfo<StructuralCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------
// A __shfl whose source lane holds no value: the sanitizer's hazard and
// every certificate carry one text, composed once.

struct ShflSourceCase {
  const char* name;
  const char* guard;  // the lanes that set u
  const char* call;
  const char* text;
};

void PrintTo(const ShflSourceCase& c, std::ostream* os) { *os << c.name; }

const ShflSourceCase kShflSourceCases[] = {
    {"Broadcast", "tx > 0", "__shfl(u, 0, 32)",
     "__shfl reads uninitialized variable 'u' from lane 0"},
    {"BroadcastLane5", "tx != 5", "__shfl(u, 5, 32)",
     "__shfl reads uninitialized variable 'u' from lane 5"},
    {"Up", "tx > 0", "__shfl_up(u, 1, 32)",
     "__shfl_up reads uninitialized variable 'u' from lane 0"},
    {"Xor", "tx != 3", "__shfl_xor(u, 1, 32)",
     "__shfl_xor reads uninitialized variable 'u' from lane 3"},
};

class ShflUninitializedSource
    : public ::testing::TestWithParam<ShflSourceCase> {};

TEST_P(ShflUninitializedSource, SanitizerAndCertifierShareTheText) {
  const ShflSourceCase& c = GetParam();
  auto prog = frontend::parse_program_or_throw(
      std::string(R"(
__global__ void k(float* a, float* out, int n) {
  int tx = threadIdx.x;
  float u;
  if ()") + c.guard + R"() {
    u = a[tx];
  }
  float v = )" + c.call + R"(;
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 8; i++)
    s += a[tx * 8 + i];
  out[tx] = s + v;
}
)");
  ir::Kernel& kernel = *prog->find_kernel("k");
  np::Workload w = np::make_synthetic_workload(kernel, 32, 32);
  const auto run = np::Runner(sim::DeviceSpec::gtx680())
                       .execute(np::ExecutionRequest::baseline(kernel, w)
                                    .sanitized());
  ASSERT_FALSE(run.hazards().empty());
  EXPECT_EQ(run.hazards().front().message, c.text);
  for (const Certificate& cert : certify_all(kernel, 32)) {
    EXPECT_EQ(cert.verdict, Verdict::kInconclusive) << cert.str();
    EXPECT_EQ(cert.detail, std::string("baseline: ") + c.text);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Texts, ShflUninitializedSource, ::testing::ValuesIn(kShflSourceCases),
    [](const ::testing::TestParamInfo<ShflSourceCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------
// Conversion to bool follows C: every nonzero value stores as 1, in a
// declaration, an assignment, a compound assignment and a brace
// initializer alike.

constexpr const char* kBoolSrc = R"(
__global__ void k(float* a, float* o) {
  int tx = threadIdx.x;
  bool b = 2;
  o[tx * 8] = b == 1;
  bool c = 0.25f;
  o[tx * 8 + 1] = 0.0f;
  if (c) {
    o[tx * 8 + 1] = 1.0f;
  }
  bool w[2] = {5, 0.5f};
  o[tx * 8 + 2] = w[0];
  o[tx * 8 + 3] = w[1];
  bool f = 0;
  f += 2;
  o[tx * 8 + 4] = f == 1;
  bool e;
  e = 3;
  o[tx * 8 + 5] = e;
  bool d = a[tx];
  o[tx * 8 + 6] = d;
}
)";

constexpr int kBoolThreads = 2;
constexpr std::uint64_t kBoolSeed = 5;

/// o after a VM run of kBoolSrc on a seeded input.
std::vector<float> bool_kernel_on_the_vm(const ir::Kernel& kernel) {
  np::Workload w;
  const auto a = w.mem->alloc(ir::ScalarType::kFloat, kBoolThreads);
  const auto o = w.mem->alloc(ir::ScalarType::kFloat, kBoolThreads * 8);
  w.launch.args = {a, o};
  w.launch.grid = {1, 1, 1};
  w.launch.block = {kBoolThreads, 1, 1};
  np::seed_certify_floats(w, kBoolSeed);
  (void)np::Runner(sim::DeviceSpec::gtx680())
      .execute(np::ExecutionRequest::baseline(kernel, w));
  const auto out = w.mem->buffer(o).f32();
  return {out.begin(), out.end()};
}

TEST(BoolConversion, VmFollowsC) {
  std::unique_ptr<ir::Program> prog;
  const ir::Kernel& kernel = parse_kernel(prog, kBoolSrc);
  const std::vector<float> out = bool_kernel_on_the_vm(kernel);
  for (int t = 0; t < kBoolThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    // Cell 6 stores d = a[t], a nonzero seeded input.
    for (int e = 0; e < 7; ++e) EXPECT_EQ(out[t * 8 + e], 1.0f) << e;
  }
}

TEST(BoolConversion, CertifierFollowsC) {
  std::unique_ptr<ir::Program> prog;
  const ir::Kernel& kernel = parse_kernel(prog, kBoolSrc);
  std::vector<sim::SymArg> args(2);
  args[0].elems = kBoolThreads;
  args[1].elems = kBoolThreads * 8;
  for (auto& arg : args) {
    arg.kind = sim::SymArg::Kind::kBufferSymbolic;
    arg.type = ir::ScalarType::kFloat;
  }
  sim::SymArena arena;
  const auto r = sim::sym_execute(sim::DeviceSpec::gtx680(), kernel,
                                  {1, 1, 1}, {kBoolThreads, 1, 1}, args,
                                  arena);
  ASSERT_TRUE(r.ok) << r.reason;
  const std::vector<float> vm = bool_kernel_on_the_vm(kernel);
  sim::SymEvaluator eval(arena, kBoolSeed);
  for (int t = 0; t < kBoolThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    for (int e = 0; e < 7; ++e) {
      const std::uint32_t id = r.buffers[1][t * 8 + e];
      sim::Value v;
      if (e < 6) {
        ASSERT_TRUE(arena.constant(id, &v)) << e;
        EXPECT_EQ(v.as_f(), 1.0) << e;
      }
      ASSERT_TRUE(eval.eval(id, &v)) << e;
      EXPECT_EQ(v.as_f(), 1.0) << e;
      EXPECT_EQ(static_cast<float>(v.as_f()), vm[t * 8 + e]) << e;
    }
  }
}

// A brace initializer runs per thread: w[0] is each thread's own a[tx].
constexpr const char* kConstantBraceSrc = R"(
__global__ void k(float* a, float* out) {
  int tx = threadIdx.x;
  __constant__ float w[2] = {a[tx], 1.0f};
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 8; i++)
    s += a[tx * 8 + i] * w[0];
  out[tx] = s + w[1];
}
)";

TEST(Certifier, BraceInitializersRunPerThread) {
  // The certifier, the VM and C agree that every thread evaluates the
  // initializer: the symbolic baseline at a seed is the VM's output, and
  // both use each thread's own a[tx]. Both engines used to evaluate it
  // for lane 0 only and give every thread a[0].
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kConstantBraceSrc);
  for (const Certificate& cert : certify_all(kernel, 32))
    EXPECT_TRUE(cert.proven()) << cert.str();

  constexpr std::uint64_t kSeed = 3;
  np::Workload w = np::make_synthetic_workload(kernel, 32, 32);
  std::vector<sim::SymArg> args(2);
  for (auto& arg : args) {
    arg.kind = sim::SymArg::Kind::kBufferSymbolic;
    arg.type = ir::ScalarType::kFloat;
    arg.elems = 32 * 32;
  }
  sim::SymArena arena;
  const auto sym = sim::sym_execute(sim::DeviceSpec::gtx680(), kernel,
                                    w.launch.grid, w.launch.block, args,
                                    arena);
  ASSERT_TRUE(sym.ok) << sym.reason;
  np::seed_certify_floats(w, kSeed);
  const auto in = w.mem->buffer(std::get<sim::BufferId>(w.launch.args[0]))
                      .f32();
  const std::vector<float> a(in.begin(), in.end());
  ASSERT_TRUE(np::Runner(sim::DeviceSpec::gtx680())
                  .execute(np::ExecutionRequest::baseline(kernel, w))
                  .clean());
  const auto out = w.mem->buffer(std::get<sim::BufferId>(w.launch.args[1]))
                       .f32();
  sim::SymEvaluator eval(arena, kSeed);
  for (int tx = 0; tx < 32; ++tx) {
    float s = 0.0f;
    for (int i = 0; i < 8; ++i) s += a[tx * 8 + i] * a[tx];
    EXPECT_EQ(out[tx], s + 1.0f) << tx;
    sim::Value v;
    ASSERT_TRUE(eval.eval(sym.buffers[1][tx], &v)) << tx;
    EXPECT_EQ(static_cast<float>(v.as_f()), out[tx]) << tx;
  }
}

TEST(Certifier, BraceInitializedLocalArrayIsNotReHomed) {
  // A re-homed local array has no per-master form of its initializer, so
  // the configs that would re-home it are not applicable, naming it. The
  // transformer used to keep the raw initializer on the re-homed
  // declaration, and every config was refuted.
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, R"(
__global__ void k(float* a, float* out) {
  int tx = threadIdx.x;
  float w[2] = {a[tx], 1.0f};
  float s = 0.0f;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < 8; i++)
    s += a[tx * 8 + i] * w[0];
  out[tx] = s + w[1];
}
)");
  const auto configs =
      NpCompiler::enumerate_configs(kernel, 32, sim::DeviceSpec::gtx680());
  EXPECT_EQ(configs.size(), 10u);
  for (const auto& cfg : configs) {
    SCOPED_TRACE(cfg.describe());
    try {
      (void)NpCompiler::transform(kernel, cfg);
      ADD_FAILURE() << "re-homed a brace-initialized array";
    } catch (const CompileError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "local array 'w' has a brace initializer"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------
// The headline guarantee: every paper benchmark certifies as equivalent
// (exactly, or modulo float reassociation) under every applicable NP
// configuration.

class BenchmarkCertification : public ::testing::TestWithParam<std::string> {};

/// Certifies every applicable config of `kernel` through one
/// JobCertifier, whose baseline proof all variants share, and checks
/// each certificate byte for byte against a fresh one-shot proof. The
/// same JobCertifier then certifies them again in reverse order: a
/// certificate must not depend on which configs were certified before
/// it. Returns the shared-path certificates.
std::vector<Certificate> certify_shared_checked(
    const ir::Kernel& kernel, const np::WorkloadFactory& factory,
    const Certifier& certifier) {
  auto probe = factory();
  auto configs = NpCompiler::enumerate_configs(
      kernel, static_cast<int>(probe.launch.block.count()), certifier.spec());
  EXPECT_FALSE(configs.empty());
  std::vector<transform::TransformResult> variants;
  for (const auto& cfg : configs) {
    try {
      variants.push_back(NpCompiler::transform(kernel, cfg));
    } catch (const CompileError&) {
      continue;  // configuration legitimately inapplicable
    }
  }
  np::JobCertifier job(certifier, kernel, factory);
  std::vector<Certificate> certs;
  for (const auto& variant : variants) {
    SCOPED_TRACE(variant.config.describe());
    certs.push_back(job.certify(variant));
    EXPECT_EQ(certs.back().json(),
              np::JobCertifier(certifier, kernel, factory)
                  .certify(variant)
                  .json());
  }
  for (std::size_t i = variants.size(); i-- > 0;) {
    SCOPED_TRACE(variants[i].config.describe() + " (reverse order)");
    EXPECT_EQ(job.certify(variants[i]).json(), certs[i].json());
  }
  return certs;
}

TEST_P(BenchmarkCertification, EveryNpVariantIsProven) {
  // Proofs are per-workload-shape, so certify at a reduced scale: the
  // expression DAGs grow with the iteration count, and the full test
  // scale proves the same structure at several times the cost.
  constexpr double kCertifyScale = 0.02;
  auto bench = kernels::make_benchmark(GetParam(), kCertifyScale);
  auto factory = [&] { return bench->make_workload(); };
  int certified = 0;
  for (const Certificate& cert : certify_shared_checked(
           bench->kernel(), factory, Certifier(sim::DeviceSpec::gtx680()))) {
    EXPECT_TRUE(cert.proven()) << cert.str();
    certified += cert.proven() ? 1 : 0;
  }
  EXPECT_GT(certified, 0);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkCertification,
                         ::testing::ValuesIn(kernels::benchmark_names()));

// ---------------------------------------------------------------------
// One baseline proof per job: sharing it must not change a byte (the
// benchmark sweep above checks the same on every paper kernel).

TEST(Certifier, SharedBaselineMatchesFreshProof) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto spec = sim::DeviceSpec::gtx680();
  for (int elems : {8, 16, 32}) {
    SCOPED_TRACE(elems);
    auto factory = [&] {
      return np::make_synthetic_workload(kernel, elems, elems);
    };
    for (const Certificate& cert :
         certify_shared_checked(kernel, factory, Certifier(spec)))
      EXPECT_TRUE(cert.proven()) << cert.str();
  }
  // Node budgets that trip in the baseline run, the variant run or the
  // normalization trip identically both ways: every variant starts from
  // the arena a fresh proof builds (the baseline run), node for node.
  // 1000 trips in the baseline run, 2000 in the variant runs, and 1800
  // in one variant's normalization.
  auto factory = [&] { return np::make_synthetic_workload(kernel, 16, 16); };
  std::set<std::string> trips;
  for (std::int64_t nodes : {1000, 1800, 2000}) {
    CertifyOptions opt;
    opt.max_nodes = nodes;
    for (const Certificate& cert :
         certify_shared_checked(kernel, factory, Certifier(spec, opt))) {
      EXPECT_EQ(cert.verdict, Verdict::kInconclusive) << cert.str();
      trips.insert(cert.detail.substr(0, cert.detail.find(" of ")));
    }
  }
  EXPECT_EQ(trips, (std::set<std::string>{
                       "baseline: expression budget",
                       "normalization expression budget",
                       "variant: expression budget",
                   }));
}

TEST(Certifier, RawEqualCellsNeedNoNormalForm) {
  // c is a reduction, so every variant changes it; d doubles a per-thread
  // input 50 times outside the NP loop, so every variant leaves it the
  // baseline's own node, whose normal form (2^50 operands) no budget
  // holds. Only cells that differ raw may be normalized.
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, R"(
__global__ void k(float* a, float* b, float* c, float* d, int w, int h) {
  float s = 0.0f;
  int tx = threadIdx.x;
  #pragma np parallel for reduction(+:s)
  for (int i = 0; i < h; i++)
    s += a[i * w + tx] * b[i];
  c[tx] = s;
  float t = a[tx];
  for (int j = 0; j < 50; j++)
    t = t + t;
  d[tx] = t;
}
)");
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  const auto certs = certify_shared_checked(
      kernel, factory, Certifier(sim::DeviceSpec::gtx680()));
  EXPECT_EQ(certs.size(), 10u);
  for (const Certificate& cert : certs)
    EXPECT_EQ(cert.verdict, Verdict::kProvenModuloReassoc) << cert.str();
}

TEST(CertifyOptions, FingerprintDistinguishesTolerances) {
  // Pinned: cache keys of existing certificates must keep hitting.
  EXPECT_EQ(CertifyOptions{}.fingerprint(),
            "steps=4000000 gather=4096 nodes=8000000 attempts=6 replay=1 "
            "rel=0.001 abs=0.0001");
  CertifyOptions a, b;
  a.f32_rel_tol = 1e-3;
  b.f32_rel_tol = 1.0000001e-3;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  a.f32_abs_tol = 1e-4;
  b.f32_rel_tol = 1e-3;
  b.f32_abs_tol = 1.0000001e-4;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// ---------------------------------------------------------------------
// Compiler integration: kProvenWrong quarantine and the certified fast
// path.

TEST(CompilerCertification, ValidateRecordsVerdicts) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  auto spec = sim::DeviceSpec::gtx680();
  np::ValidationOptions opt;
  opt.certify = true;
  auto configs = NpCompiler::enumerate_configs(kernel, 8, spec);
  auto report = NpCompiler::validate(kernel, configs, factory, spec, opt);
  ASSERT_FALSE(report.entries.empty());
  for (const auto& e : report.entries) {
    if (!e.transform_ok) continue;
    EXPECT_TRUE(e.verdict == "proven" || e.verdict == "proven-modulo-reassoc")
        << e.config << ": " << e.verdict << " (" << e.verdict_detail << ")";
  }
}

TEST(CompilerCertification, RefutedCertificateQuarantinesBeforeAnyRun) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  auto spec = sim::DeviceSpec::gtx680();
  auto configs = NpCompiler::enumerate_configs(kernel, 8, spec);
  ASSERT_FALSE(configs.empty());

  np::ValidationOptions opt;
  opt.certify = true;
  // A provider that swears every variant is proven wrong: the compiler
  // must quarantine them all (kProvenWrong) and fall back to baseline
  // without ever spawning a variant run.
  opt.certificates.load = [](const std::string& config) {
    Certificate c;
    c.config = config;
    c.verdict = Verdict::kRefuted;
    c.counterexample_seed = 7;
    c.detail = "cached refutation";
    return std::optional<Certificate>(c);
  };
  auto result =
      NpCompiler::compile_with_fallback(kernel, configs, factory, spec, opt);
  EXPECT_TRUE(result.decision.used_baseline);
  ASSERT_FALSE(result.decision.quarantined.empty());
  for (const auto& f : result.decision.quarantined) {
    EXPECT_EQ(f.cause, np::FailureCause::kProvenWrong) << f.str();
    EXPECT_NE(f.detail.find("counterexample seed 7"), std::string::npos)
        << f.detail;
  }
}

TEST(CompilerCertification, ProviderSavesFreshCertificates) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  auto spec = sim::DeviceSpec::gtx680();
  auto configs = NpCompiler::enumerate_configs(kernel, 8, spec);

  std::map<std::string, Certificate> store;
  int loads = 0;
  np::ValidationOptions opt;
  opt.certify = true;
  opt.certificates.load =
      [&](const std::string& config) -> std::optional<Certificate> {
    ++loads;
    auto it = store.find(config);
    if (it == store.end()) return std::nullopt;
    return it->second;
  };
  opt.certificates.save = [&](const Certificate& c) { store[c.config] = c; };

  (void)NpCompiler::compile_with_fallback(kernel, configs, factory, spec, opt);
  EXPECT_FALSE(store.empty());
  for (const auto& [config, cert] : store) {
    EXPECT_TRUE(cert.proven()) << cert.str();
    EXPECT_EQ(cert.config, config);
  }
  // Second compile: every certificate must come from the cache (loads
  // only, no growth).
  auto size_before = store.size();
  (void)NpCompiler::compile_with_fallback(kernel, configs, factory, spec, opt);
  EXPECT_EQ(store.size(), size_before);
  EXPECT_GT(loads, 0);
}

TEST(CompilerCertification, CertifiedFastPathPicksTheSameVariant) {
  std::unique_ptr<ir::Program> prog;
  ir::Kernel& kernel = parse_kernel(prog, kDotSrc);
  auto factory = [&] { return np::make_synthetic_workload(kernel, 8, 8); };
  auto spec = sim::DeviceSpec::gtx680();
  auto configs = NpCompiler::enumerate_configs(kernel, 8, spec);

  np::ValidationOptions plain;
  auto ref =
      NpCompiler::compile_with_fallback(kernel, configs, factory, spec, plain);

  np::ValidationOptions fast;
  fast.certify = true;
  fast.certified_fast_path = true;
  auto got =
      NpCompiler::compile_with_fallback(kernel, configs, factory, spec, fast);

  EXPECT_EQ(got.decision.used_baseline, ref.decision.used_baseline);
  EXPECT_EQ(got.decision.chosen_config, ref.decision.chosen_config);
  EXPECT_EQ(got.decision.quarantined.size(), ref.decision.quarantined.size());
}

}  // namespace
}  // namespace cudanp
