// Symbolic evaluator over ir:: kernels (the proof engine behind
// np/certifier.hpp).
//
// The executor interprets the bytecode::Program that bytecode::lower
// builds for the VM (sim/bytecode.hpp), in the same block-lockstep
// vector model, but with *symbolic* float data: geometry and int scalar
// parameters are concrete (so loop bounds, indices and masks fold),
// while float buffer elements and float scalar parameters are opaque
// input leaves. Registers and variables hold hash-consed expression
// nodes; every arithmetic step builds one whose constant folding uses
// the VM's scalar semantics (sim/arith.hpp: float ops round through f32,
// int64 wraps, the math builtins come from its one table), so a
// fully-concrete symbolic run computes exactly what the VM would.
//
// Evaluation order, typing, name resolution, declarations and masks are
// the lowering's, so both engines run one definition of every construct.
// Control flow runs through the VM's region stack (exec::Regions,
// sim/lanes.hpp); the executor supplies only how a condition splits the
// mask (lanes whose condition is symbolic run both arms) and the frame
// swap and select merge where an else arm starts and an if ends.
// Each kTrap raises the binder's structural-error text (sim/binder.hpp),
// and lanes, launch checks, __syncthreads and __shfl follow the lane
// model of sim/lanes.hpp on the DeviceSpec the certifier holds: where
// one of them fails, the run aborts as a fault with the VM's message.
//
// The result is, per output buffer element, an expression DAG over the
// input leaves. np::Certifier normalizes those DAGs (constant folding,
// sub -> add/neg, AC-flattening and operand sorting of +,*,min,max
// chains, select(x<y,x,y) -> min/max) and compares baseline vs variant:
// identical raw DAGs prove exact equivalence; identical normalized DAGs
// prove equivalence modulo reassociation/commutation, which is the right
// contract for NP-transformed float reductions and scans.
//
// Anything outside the supported envelope (symbolic loop bounds,
// symbolic store indices, barriers or shared-memory stores under
// symbolically divergent branches, cross-block data flow, budget
// exhaustion) aborts the run with a reason instead of guessing — the
// certifier maps that to kInconclusive and the empirical
// sanitize/cross-check legs keep the final say. Global stores under a
// symbolically divergent branch are supported by folding the branch
// predicate into the stored value (select(pred, new, old)).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/kernel.hpp"
#include "sim/binder.hpp"
#include "sim/device.hpp"
#include "sim/launch.hpp"

namespace cudanp::sim {

enum class SymKind : std::uint8_t {
  kConstInt,
  kConstFloat,
  /// Symbolic input leaf: element `elem` of buffer argument `param`, or
  /// the scalar argument `param` itself when elem == -1.
  kInput,
  kBin,    // ir::BinOp over kids[0], kids[1]
  kUnary,  // ir::UnOp over kids[0]
  kCall,   // SymFn over kids
  kCast,   // to ScalarType (op field) of kids[0]
  kSelect, // kids = {cond, then, else}
  kGather, // kids = {index, cell0, cell1, ...}: load at a symbolic index
  kNary,   // normalized AC chain (SymNaryOp), operands sorted by id
};

/// Builtin math functions a symbolic call node can carry: sim::Builtin
/// from kSqrt on (barriers and shfl are resolved during execution and
/// never become nodes). The value is part of every node hash, so the
/// order is fixed.
enum class SymFn : std::uint8_t {
  kSqrt, kFabs, kExp, kLog, kSin, kCos, kFloor, kRsqrt, kAbs,
  kMin, kMax, kFminf, kFmaxf, kPowf,
};

[[nodiscard]] constexpr Builtin builtin_of(SymFn fn) {
  return static_cast<Builtin>(static_cast<int>(fn) +
                              static_cast<int>(Builtin::kSqrt));
}
[[nodiscard]] constexpr SymFn sym_fn_of(Builtin b) {
  return static_cast<SymFn>(static_cast<int>(b) -
                            static_cast<int>(Builtin::kSqrt));
}
static_assert(builtin_of(SymFn::kSqrt) == Builtin::kSqrt &&
              builtin_of(SymFn::kFabs) == Builtin::kFabs &&
              builtin_of(SymFn::kExp) == Builtin::kExp &&
              builtin_of(SymFn::kLog) == Builtin::kLog &&
              builtin_of(SymFn::kSin) == Builtin::kSin &&
              builtin_of(SymFn::kCos) == Builtin::kCos &&
              builtin_of(SymFn::kFloor) == Builtin::kFloor &&
              builtin_of(SymFn::kRsqrt) == Builtin::kRsqrt &&
              builtin_of(SymFn::kAbs) == Builtin::kAbs &&
              builtin_of(SymFn::kMin) == Builtin::kMin &&
              builtin_of(SymFn::kMax) == Builtin::kMax &&
              builtin_of(SymFn::kFminf) == Builtin::kFminf &&
              builtin_of(SymFn::kFmaxf) == Builtin::kFmaxf &&
              builtin_of(SymFn::kPowf) == Builtin::kPowf,
              "SymFn must mirror Builtin from kSqrt on");

/// AC operators the normalizer flattens into kNary chains.
enum class SymNaryOp : std::uint8_t { kAdd, kMul, kMin, kMax };

struct SymNode {
  SymKind kind = SymKind::kConstInt;
  ir::ScalarType type = ir::ScalarType::kInt;
  /// BinOp / UnOp / SymFn / SymNaryOp / target ScalarType, by kind.
  std::uint8_t op = 0;
  std::int32_t param = -1;   // kInput: argument index
  std::int64_t ival = 0;     // kConstInt value / kInput element index
  double fval = 0.0;         // kConstFloat value
  /// Operands, stored in the arena's shared pool: SymArena::kids(id).
  std::uint32_t kid_begin = 0;
  std::uint32_t kid_count = 0;
};

/// Raised by constant folding when the folded operation would make the
/// interpreter throw (integer division by zero); the executor turns it
/// into an aborted result with fault = true.
struct SymFault {
  std::string message;
};

/// Hash-consing arena. Node ids are indices; structural equality of two
/// expressions built in the *same* arena is id equality. Builders fold
/// eagerly when every operand is constant, replicating the interpreter's
/// exact semantics (f32 rounding on float ops and math calls).
///
/// Storage is flat: nodes and one operand pool are plain vectors, and
/// undoing what was added since a mark() costs only what was added.
/// Every node lives in exactly one lookup structure, so it is appended
/// once and its id is its creation order:
///  - an input leaf in a dense table, by (param, type, elem + 1);
///  - an int constant in [kIntWindowLo, kIntWindowHi) in a dense window;
///  - every other node in the hashed intern index, an open-addressing
///    table of node ids (linear probing, power-of-two size, at most half
///    full; an indexed node keeps its hash for rehashing). Float
///    constants have a direct-mapped cache by bit pattern in front.
/// Leaves and constants are most of the lookups; a table or cache hit
/// neither hashes nor probes. The node, operand, hash and normal-form
/// vectors of a destroyed arena pass to the next arena made on the same
/// thread, so a worker certifying job after job does not regrow them.
class SymArena {
 public:
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  /// The int constants the dense window holds.
  static constexpr std::int64_t kIntWindowLo = -1024;
  static constexpr std::int64_t kIntWindowHi = std::int64_t{1} << 16;

  SymArena();
  SymArena(const SymArena&) = default;
  SymArena(SymArena&&) noexcept = default;
  SymArena& operator=(const SymArena&) = default;
  SymArena& operator=(SymArena&&) noexcept = default;
  ~SymArena();

  [[nodiscard]] std::uint32_t cint(std::int64_t v);
  /// Constant float, rounded through f32 like every interpreter value.
  [[nodiscard]] std::uint32_t cfloat(double v);
  [[nodiscard]] std::uint32_t input(std::int32_t param, std::int64_t elem,
                                    ir::ScalarType type);
  [[nodiscard]] std::uint32_t bin(ir::BinOp op, std::uint32_t a,
                                  std::uint32_t b);
  [[nodiscard]] std::uint32_t un(ir::UnOp op, std::uint32_t a);
  /// A math builtin over one or two operands.
  [[nodiscard]] std::uint32_t call(SymFn fn,
                                   std::span<const std::uint32_t> kids);
  [[nodiscard]] std::uint32_t cast(ir::ScalarType to, std::uint32_t a);
  [[nodiscard]] std::uint32_t select(std::uint32_t c, std::uint32_t a,
                                     std::uint32_t b);
  [[nodiscard]] std::uint32_t gather(std::uint32_t idx,
                                     std::span<const std::uint32_t> cells,
                                     ir::ScalarType type);

  [[nodiscard]] const SymNode& node(std::uint32_t id) const {
    return nodes_[id];
  }
  /// Operands of node `id`; valid until the next node is built.
  [[nodiscard]] std::span<const std::uint32_t> kids(std::uint32_t id) const {
    const SymNode& n = nodes_[id];
    return {kids_.data() + n.kid_begin, n.kid_count};
  }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// True when the node is a constant; fills `out` with its Value.
  [[nodiscard]] bool constant(std::uint32_t id, Value* out) const;

  /// Canonical form: constants folded, sub/neg rewritten into add/mul
  /// chains, +,*,min,max flattened into sorted kNary nodes, comparisons
  /// oriented, select-over-comparison rewritten to min/max. Memoized.
  /// A maximal same-operator chain is flattened in one walk, so a
  /// length-k reduction costs O(k log k), not one node per prefix; a
  /// min/max chain node reached along several paths is walked once.
  /// The walk keeps its own stack, so DAG depth costs no host stack.
  /// Returns kInvalid when the arena plus the walk's chain scratch would
  /// exceed `max_nodes` (a + chain reusing a sub-chain J times has 2^J
  /// operands); throws SymFault when folding faults. Either way the
  /// arena stays usable and earlier normal forms stay memoized.
  [[nodiscard]] std::uint32_t normalize(
      std::uint32_t id,
      std::int64_t max_nodes = std::numeric_limits<std::int64_t>::max());

  /// Records the arena's state for rollback(). From here on the arena
  /// logs the index slots it fills, the table entries it sets and the
  /// normal forms it memoizes for older nodes, so a rollback costs what
  /// was added since the mark.
  void mark();
  /// Returns the arena to the state mark() recorded, node for node (as
  /// often as needed: the mark stays). The certifier runs every variant
  /// of a job in the baseline's arena and rolls it back afterwards.
  void rollback();

  /// Renders an expression for diagnostics (depth-capped).
  [[nodiscard]] std::string str(std::uint32_t id, int max_depth = 6) const;

 private:
  /// The constant operands of an AC chain, folded in encounter order.
  struct Folded {
    bool have = false;
    Value value{};
  };
  /// A min/max chain node already collected by the current walk, with
  /// its folded constant.
  struct SeenChain {
    std::uint32_t id;
    std::uint32_t prev_slot;  // chain_slot_[id] before this entry
    Folded c;
  };
  /// One pending step of normalize(). A normalize frame rebuilds `id`
  /// over its operands' normal forms, or finishes the chain `id` roots;
  /// a collect frame walks the chain node `id` of a root's chain.
  struct NormFrame {
    std::uint32_t id = 0;
    std::uint32_t next = 0;  // next operand to visit
    bool collect = false;
    bool chain_root = false;
    bool awaiting = false;  // a frame pushed above returns into this one
    bool sub = false;       // collect: that frame is a sub-walk
    SymNaryOp op{};         // the chain's operator
    /// Normalize: its operands' results begin at norm_args_[mark]; chain
    /// root: its operands begin at chain_rest_[mark]; collect: the size
    /// of chain_rest_ before the pending sub-walk.
    std::size_t mark = 0;
    std::size_t seen_begin = 0;  // the root's first chain_seen_ entry
    Folded c;                    // collect: the walk's folded constants
  };
  /// One direct-mapped float-constant cache entry.
  struct FloatSlot {
    std::uint64_t bits = 0;
    std::uint32_t id = kInvalid;
  };
  static constexpr std::size_t kFloatSlots = 4096;

  [[nodiscard]] std::uint32_t append(const SymNode& n,
                                     std::span<const std::uint32_t> kids,
                                     std::uint64_t hash);
  [[nodiscard]] std::uint32_t intern(const SymNode& n,
                                     std::span<const std::uint32_t> kids);
  /// The dense table entry of input leaf (param, elem, type), grown on
  /// demand; null for a key outside the table.
  [[nodiscard]] std::uint32_t* input_slot(std::int32_t param,
                                          std::int64_t elem,
                                          ir::ScalarType type);
  /// Clears the dense-table or cache entry that refers to `id`.
  void untable(std::uint32_t id);
  void rehash(std::size_t slots);
  [[nodiscard]] std::uint32_t fold_bin(ir::BinOp op, Value a, Value b);
  void absorb(SymNaryOp op, std::uint32_t operand, Folded& c);
  [[nodiscard]] std::uint32_t finish_chain(SymNaryOp op, ir::ScalarType type,
                                           std::size_t begin, Folded c);
  [[nodiscard]] std::uint32_t make_nary(
      SymNaryOp op, ir::ScalarType type,
      std::initializer_list<std::uint32_t> operands);
  [[nodiscard]] std::uint32_t memo(std::uint32_t id) const;
  void push_normalize(std::uint32_t id);
  void push_collect(std::uint32_t id, SymNaryOp op, std::size_t seen_begin);
  void clear_norm_scratch();
  [[nodiscard]] std::uint32_t normalize_walk(std::uint32_t root,
                                             std::int64_t max_nodes);
  [[nodiscard]] bool collect_step(NormFrame& f, const SymNode& n,
                                  std::uint32_t ret, const Folded& ret_c);
  [[nodiscard]] std::uint32_t rebuild(std::uint32_t id, const SymNode& n,
                                      std::size_t args);

  std::vector<SymNode> nodes_;
  std::vector<std::uint64_t> hashes_;  // per node; 0: not in the index
  std::vector<std::uint32_t> kids_;    // operand pool
  /// The intern index (see the class comment); kInvalid marks a free
  /// slot. Holds `indexed_` nodes.
  std::vector<std::uint32_t> index_;
  std::size_t indexed_ = 0;
  /// Input leaf ids by [param and type][elem + 1].
  std::vector<std::vector<std::uint32_t>> inputs_;
  /// Int constant ids by [v - kIntWindowLo], grown on demand.
  std::vector<std::uint32_t> ints_;
  /// Float constant ids by a hash of their bit pattern; empty until the
  /// first float constant.
  std::vector<FloatSlot> floats_;
  /// normalize() results per node id; kInvalid = not normalized yet.
  std::vector<std::uint32_t> norm_memo_;
  /// Scratch of normalize(), make_nary and gather(). Nested frames push
  /// above the entries of their caller and pop back to them.
  std::vector<NormFrame> norm_stack_;
  std::vector<std::uint32_t> norm_args_;
  std::vector<std::uint32_t> chain_rest_;
  std::vector<SeenChain> chain_seen_;
  std::vector<std::uint32_t> gather_kids_;
  /// Per node id: its entry in chain_seen_, if the walk owning that
  /// entry is still running.
  std::vector<std::uint32_t> chain_slot_;
  /// mark(): the state it recorded, and what changed since.
  bool marked_ = false;
  std::size_t mark_nodes_ = 0;
  std::size_t mark_indexed_ = 0;
  std::vector<std::size_t> filled_;      // index slots filled
  std::vector<std::uint32_t> tabled_;    // ids entered in a table or cache
  std::vector<std::uint32_t> memoized_;  // ids < mark_nodes_ normalized
};

/// How one kernel argument is modelled symbolically.
struct SymArg {
  enum class Kind : std::uint8_t {
    kScalarConcrete,  ///< int scalar pinned to a concrete value
    kScalarSymbolic,  ///< float scalar: one input leaf
    kBufferSymbolic,  ///< float buffer of `elems` symbolic input leaves
    kBufferConcrete,  ///< int buffer with the concrete contents of `ints`
    kBufferScratch,   ///< uninitialized device scratch (variant re-homing)
  };
  Kind kind = Kind::kScalarConcrete;
  ir::ScalarType type = ir::ScalarType::kInt;
  Value scalar{};           // kScalarConcrete
  std::int64_t elems = 0;   // buffer kinds
  /// kBufferConcrete: the elems concrete values (int data steers control
  /// flow and indexing, so it is pinned, not abstracted).
  std::vector<std::int32_t> ints;
};

/// Deterministic float assignment for input leaf (param, elem) under a
/// counterexample seed (elem == -1 for scalar params). Counterexample
/// replays fill concrete workloads from the same function, so symbolic
/// evaluation and interpreter execution see identical inputs.
[[nodiscard]] float sym_float_input(std::uint64_t seed, int param,
                                    std::int64_t elem);

struct SymExecOptions {
  /// Statement budget across the whole grid; exhausted -> aborted run.
  std::int64_t max_steps = 4'000'000;
  /// Largest array a load at a symbolic index may be expanded over
  /// (kGather snapshot size); larger -> aborted run.
  std::int64_t max_gather_cells = 4096;
  /// Arena node budget: a run whose expression DAG outgrows this aborts
  /// (keeps certification time and memory bounded on huge workloads).
  std::int64_t max_nodes = 8'000'000;
};

struct SymExecResult {
  /// True when the kernel was executed to completion within the model.
  bool ok = false;
  /// Set with ok == false when the abort is a *deterministic fault* the
  /// interpreter would also raise on any input (OOB access, div by
  /// zero), as opposed to an unsupported-construct bailout.
  bool fault = false;
  std::string reason;
  /// Final symbolic contents per buffer argument (empty vector for
  /// scalar args), indexed like the `args` input.
  std::vector<std::vector<std::uint32_t>> buffers;
  /// The first 64 cross-warp same-epoch access pairs (sim/hazards.hpp):
  /// races on real hardware, but ordered by the lockstep model that NP
  /// handoffs rely on, so advisory notes, not verdicts.
  std::vector<std::string> races;
  std::int64_t steps = 0;
};

/// Executes `kernel` over the whole grid in lockstep-vector order, on
/// the lanes of `spec` (its warp size, block limit and sm version).
/// Blocks run sequentially; a read of a global element written by a
/// *different* block aborts (cross-block ordering is undefined on real
/// hardware and uncertifiable).
[[nodiscard]] SymExecResult sym_execute(const DeviceSpec& spec,
                                        const ir::Kernel& kernel, Dim3 grid,
                                        Dim3 block,
                                        const std::vector<SymArg>& args,
                                        SymArena& arena,
                                        const SymExecOptions& opt = {});

/// Evaluates an expression under a concrete assignment of input leaves
/// (float leaves from sym_float_input(seed, ...)). Mirrors interpreter
/// arithmetic exactly. Returns false when evaluation faults (div by
/// zero, gather index out of range). Walks on its own stack, so DAG
/// depth costs no host stack.
class SymEvaluator {
 public:
  SymEvaluator(const SymArena& arena, std::uint64_t seed)
      : arena_(arena), seed_(seed) {}
  [[nodiscard]] bool eval(std::uint32_t id, Value* out);

 private:
  const SymArena& arena_;
  std::uint64_t seed_;
  std::unordered_map<std::uint32_t, Value> memo_;
};

}  // namespace cudanp::sim
