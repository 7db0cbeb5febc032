#include "sim/exec_core.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <sstream>

#include "sim/fault.hpp"

namespace cudanp::sim::exec {

using namespace cudanp::ir;

BlockCore::BlockCore(const DeviceSpec& spec, DeviceMemory& mem,
                     const Interpreter::Options& opt,
                     const BoundKernel& bound, const LaunchConfig& cfg,
                     Dim3 block_idx, int resident_blocks, BlockSanitizer* san,
                     std::int64_t flat_block, std::int64_t max_steps)
    : spec_(spec),
      mem_(mem),
      opt_(opt),
      bound_(bound),
      kernel_(*bound.kernel),
      cfg_(cfg),
      block_idx_(block_idx),
      flat_block_(flat_block),
      max_steps_(max_steps),
      nlanes_(static_cast<int>(cfg.block.count())),
      nwarps_((nlanes_ + spec.warp_size - 1) / spec.warp_size),
      l1_(spec.l1_cache_bytes / std::max(resident_blocks, 1),
          spec.l1_line_bytes) {
  warp_issue_.assign(static_cast<std::size_t>(nwarps_), 0.0);
  warp_latency_.assign(static_cast<std::size_t>(nwarps_), 0.0);
  warp_pending_.assign(static_cast<std::size_t>(nwarps_), 0.0);
  returned_.assign(static_cast<std::size_t>(nlanes_), 0);
  san_ = san;
  if (san_) {
    warp_gen_.assign(static_cast<std::size_t>(nwarps_), 0);
    smem_shadow_.reserve(static_cast<std::size_t>(bound.shared_words_bound));
  }
  frame_.resize(bound.num_slots());
  init_geometry();
  bind_params();
}

void BlockCore::init_geometry() {
  for (int g = 0; g < kGeomCount; ++g)
    geom_[g].assign(static_cast<std::size_t>(nlanes_), Value::of_int(0));
  for (int l = 0; l < nlanes_; ++l) {
    auto li = static_cast<std::size_t>(l);
    geom_[kGeomThreadIdxX][li] = Value::of_int(l % cfg_.block.x);
    geom_[kGeomThreadIdxY][li] =
        Value::of_int((l / cfg_.block.x) % cfg_.block.y);
    geom_[kGeomThreadIdxZ][li] =
        Value::of_int(l / (cfg_.block.x * cfg_.block.y));
  }
  auto fill = [&](int g, int v) {
    geom_[g].assign(static_cast<std::size_t>(nlanes_), Value::of_int(v));
  };
  fill(kGeomBlockIdxX, block_idx_.x);
  fill(kGeomBlockIdxY, block_idx_.y);
  fill(kGeomBlockIdxZ, block_idx_.z);
  fill(kGeomBlockDimX, cfg_.block.x);
  fill(kGeomBlockDimY, cfg_.block.y);
  fill(kGeomBlockDimZ, cfg_.block.z);
  fill(kGeomGridDimX, cfg_.grid.x);
  fill(kGeomGridDimY, cfg_.grid.y);
  fill(kGeomGridDimZ, cfg_.grid.z);
}

void BlockCore::bind_params() {
  if (cfg_.args.size() != kernel_.params.size())
    throw SimError("kernel '" + kernel_.name + "' expects " +
                   std::to_string(kernel_.params.size()) + " args, got " +
                   std::to_string(cfg_.args.size()));
  for (std::size_t i = 0; i < kernel_.params.size(); ++i) {
    const Param& p = kernel_.params[i];
    Slot& slot = frame_[i];  // binder assigns params slots 0..n-1
    slot.type = p.type;
    if (p.type.is_pointer) {
      const auto* buf = std::get_if<BufferId>(&cfg_.args[i]);
      if (!buf)
        throw SimError("arg " + std::to_string(i) + " ('" + p.name +
                       "') must be a buffer");
      slot.is_buffer_param = true;
      slot.buffer = *buf;
    } else {
      const auto* v = std::get_if<Value>(&cfg_.args[i]);
      if (!v)
        throw SimError("arg " + std::to_string(i) + " ('" + p.name +
                       "') must be a scalar");
      Value coerced = p.type.scalar == ScalarType::kFloat
                          ? Value::of_float(v->as_f()).to_f32()
                          : Value::of_int(v->as_i());
      slot.is_uniform_param = true;
      slot.data.assign(1, coerced);  // uniform scalar, one copy
    }
    slot.live = true;
  }
}

KernelStats BlockCore::collect_stats() const {
  KernelStats s;
  s.blocks = 1;
  s.warps = nwarps_;
  s.global_transactions = global_transactions_;
  s.local_transactions = local_transactions_;
  s.local_l1_misses = local_l1_misses_;
  s.dram_transactions = dram_transactions_;
  s.smem_accesses = smem_accesses_;
  s.smem_replays = smem_replays_;
  s.shfl_ops = shfl_ops_;
  s.sync_ops = sync_ops_;
  s.divergent_branches = divergent_branches_;
  double crit = 0;
  for (int w = 0; w < nwarps_; ++w) {
    s.issue_slots += warp_issue_[static_cast<std::size_t>(w)];
    crit = std::max(crit, warp_issue_[static_cast<std::size_t>(w)] +
                              warp_latency_[static_cast<std::size_t>(w)] /
                                  opt_.timing.warp_mlp);
  }
  s.crit_path_cycles = crit;
  return s;
}

void BlockCore::count_step(const SourceLoc& loc) {
  ++steps_;
  if (opt_.fault) opt_.fault->maybe_fault(flat_block_, steps_, loc);
  if (steps_ > max_steps_) throw make_watchdog_error(loc);
}

WatchdogError BlockCore::make_watchdog_error(const SourceLoc& loc) const {
  std::ostringstream os;
  os << "watchdog: block (" << block_idx_.x << "," << block_idx_.y << ","
     << block_idx_.z << ") exceeded its step budget of " << max_steps_
     << " interpreted statements at " << loc.str();
  if (!loop_stack_.empty()) {
    os << "; loop back-edges (innermost first):";
    std::size_t shown = 0;
    for (auto it = loop_stack_.rbegin(); it != loop_stack_.rend() && shown < 4;
         ++it, ++shown)
      os << " " << it->first.str() << " x" << it->second;
  }
  return WatchdogError(os.str(), loc, steps_);
}

void BlockCore::stall() {
  if (max_steps_ == std::numeric_limits<std::int64_t>::max())
    throw SimError(
        "injected stall: watchdog disabled, aborting instead of hanging");
  for (;;) count_step(kernel_.body->loc());
}

// ---------------- memory access paths ----------------

void BlockCore::charge_global(const DeviceBuffer& buf, LaneView idx,
                              const Mask& mask) {
  std::int64_t esize = Type::scalar_size_bytes(buf.type());
  for_each_active_warp(mask, [&](int w, int lo, int hi) {
    std::uint64_t addrs[32];
    std::uint8_t act[32];
    int n = hi - lo;
    for (int l = lo; l < hi; ++l) {
      act[l - lo] = mask[static_cast<std::size_t>(l)];
      addrs[l - lo] =
          buf.base_addr() +
          static_cast<std::uint64_t>(idx.at(static_cast<std::size_t>(l))
                                         .as_i()) *
              static_cast<std::uint64_t>(esize);
    }
    if (buf.is_constant()) {
      // Constant cache: distinct words serialize, identical broadcast.
      int replays = smem_replays({addrs, static_cast<std::size_t>(n)},
                                 {act, static_cast<std::size_t>(n)}, 1);
      smem_accesses_ += replays;  // books constant traffic with smem
      warp_issue_[static_cast<std::size_t>(w)] +=
          opt_.timing.weights.mem_issue * replays;
      charge_latency(w, spec_.smem_latency_cycles);
      return;
    }
    int trans = coalesced_transactions({addrs, static_cast<std::size_t>(n)},
                                       {act, static_cast<std::size_t>(n)}, 32);
    global_transactions_ += trans;
    dram_transactions_ += trans;
    warp_issue_[static_cast<std::size_t>(w)] += opt_.timing.weights.mem_issue;
    charge_latency(w, spec_.dram_latency_cycles);
  });
}

void BlockCore::charge_shared(const Slot& slot, const Value* flat_idx,
                              const Mask& mask) {
  for_each_active_warp(mask, [&](int w, int lo, int hi) {
    std::uint64_t words[32];
    std::uint8_t act[32];
    int n = hi - lo;
    for (int l = lo; l < hi; ++l) {
      act[l - lo] = mask[static_cast<std::size_t>(l)];
      words[l - lo] =
          slot.base_word +
          static_cast<std::uint64_t>(flat_idx[static_cast<std::size_t>(l)]
                                         .as_i());
    }
    int replays = smem_replays({words, static_cast<std::size_t>(n)},
                               {act, static_cast<std::size_t>(n)},
                               static_cast<int>(spec_.shared_mem_banks));
    smem_accesses_ += replays;
    smem_replays_ += replays - 1;
    warp_issue_[static_cast<std::size_t>(w)] += opt_.timing.weights.mem_issue;
    charge_latency(w, spec_.smem_latency_cycles + (replays - 1));
  });
}

void BlockCore::charge_local(const Slot& slot, const Value* elem_idx,
                             const Mask& mask) {
  // Local memory is interleaved per thread: addr(lane, e) =
  // local_base + (e * nlanes + lane) * 4, matching the CUDA ABI layout
  // that makes uniform-index accesses coalesced.
  for_each_active_warp(mask, [&](int w, int lo, int hi) {
    std::uint64_t addrs[32];
    std::uint8_t act[32];
    int n = hi - lo;
    for (int l = lo; l < hi; ++l) {
      act[l - lo] = mask[static_cast<std::size_t>(l)];
      std::uint64_t e = static_cast<std::uint64_t>(
          elem_idx[static_cast<std::size_t>(l)].as_i());
      addrs[l - lo] = kLocalSpaceBase +
                      (slot.base_word +
                       e * static_cast<std::uint64_t>(nlanes_) +
                       static_cast<std::uint64_t>(l)) *
                          4;
    }
    // Unique 128B lines of this access probe the L1.
    std::uint64_t lines[32];
    int nlines = 0;
    for (int k = 0; k < n; ++k) {
      if (!act[k]) continue;
      std::uint64_t line = addrs[k] / 128;
      bool seen = false;
      for (int j = 0; j < nlines; ++j)
        if (lines[j] == line) {
          seen = true;
          break;
        }
      if (!seen) lines[nlines++] = line;
    }
    bool all_hit = true;
    for (int j = 0; j < nlines; ++j) {
      if (!l1_.access(lines[j] * 128)) {
        all_hit = false;
        dram_transactions_ += 4;  // 128B line refill in 32B transactions
        ++local_l1_misses_;
      }
    }
    local_transactions_ += nlines;
    warp_issue_[static_cast<std::size_t>(w)] += opt_.timing.weights.mem_issue;
    charge_latency(w, all_hit ? spec_.l1_latency_cycles
                              : spec_.dram_latency_cycles);
  });
}

void BlockCore::buffer_access(Slot& slot, const std::string& name,
                              LaneView idx, const Mask& mask,
                              const LaneView* store, Value* out,
                              SourceLoc loc) {
  DeviceBuffer& buf = mem_.buffer(slot.buffer);
  charge_global(buf, idx, mask);
  std::vector<std::uint8_t>* bsh =
      san_ ? san_->engine->buffer_shadow(slot.buffer) : nullptr;
  for (int l = 0; l < nlanes_; ++l) {
    if (!mask[static_cast<std::size_t>(l)]) continue;
    std::size_t i =
        static_cast<std::size_t>(idx.at(static_cast<std::size_t>(l)).as_i());
    if (store) {
      buf.store(i, coerce(store->at(static_cast<std::size_t>(l)),
                          buf.type()));
      if (bsh && i < bsh->size()) (*bsh)[i] = 1;
    } else {
      if (bsh && shfl_arg_depth_ == 0 && i < bsh->size() && !(*bsh)[i])
        san_report(HazardKind::kUninitRead, loc, l,
                   "read of uninitialized global buffer '" + name + "[" +
                       std::to_string(i) + "]'");
      out[static_cast<std::size_t>(l)] = buf.load(i);
    }
  }
}

void BlockCore::shared_access(Slot& slot, const std::string& name,
                              const Value* flat, const Mask& mask,
                              const LaneView* store, Value* out,
                              SourceLoc loc) {
  charge_shared(slot, flat, mask);
  if (san_) ++access_seq_;
  for (int l = 0; l < nlanes_; ++l) {
    if (!mask[static_cast<std::size_t>(l)]) continue;
    std::size_t i =
        static_cast<std::size_t>(flat[static_cast<std::size_t>(l)].as_i());
    if (store) {
      Value val =
          coerce(store->at(static_cast<std::size_t>(l)), slot.type.scalar);
      if (san_) note_shared_write(slot, name, i, l, val, loc);
      slot.data[i] = val;
    } else {
      if (san_) note_shared_read(slot, name, i, l, loc);
      out[static_cast<std::size_t>(l)] = slot.data[i];
    }
  }
}

void BlockCore::local_access(Slot& slot, const std::string& name,
                             const Value* flat, const Mask& mask,
                             const LaneView* store, Value* out,
                             SourceLoc loc) {
  if (slot.type.space == AddrSpace::kLocal) {
    charge_local(slot, flat, mask);
  } else if (slot.type.space == AddrSpace::kConstant) {
    // Constant cache broadcasts one word per cycle: lanes reading
    // distinct words serialize (paper Sec. 3.4's intra-warp hazard).
    for_each_active_warp(mask, [&](int w, int lo, int hi) {
      std::uint64_t words[32];
      std::uint8_t act[32];
      int n = hi - lo;
      for (int l = lo; l < hi; ++l) {
        act[l - lo] = mask[static_cast<std::size_t>(l)];
        words[l - lo] = static_cast<std::uint64_t>(
            flat[static_cast<std::size_t>(l)].as_i());
      }
      int replays = smem_replays({words, static_cast<std::size_t>(n)},
                                 {act, static_cast<std::size_t>(n)}, 1);
      warp_issue_[static_cast<std::size_t>(w)] +=
          opt_.timing.weights.mem_issue * replays;
      charge_latency(w, spec_.smem_latency_cycles);
    });
  } else {
    charge_issue(mask, opt_.timing.weights.alu);  // register-file access
  }
  std::int64_t elems = slot.type.element_count();
  for (int l = 0; l < nlanes_; ++l) {
    if (!mask[static_cast<std::size_t>(l)]) continue;
    std::size_t i = static_cast<std::size_t>(
        static_cast<std::int64_t>(l) * elems +
        flat[static_cast<std::size_t>(l)].as_i());
    if (store) {
      slot.data[i] =
          coerce(store->at(static_cast<std::size_t>(l)), slot.type.scalar);
      if (!slot.shadow.empty()) slot.shadow[i] = 1;
    } else {
      if (san_ && shfl_arg_depth_ == 0 && !slot.shadow.empty() &&
          !slot.shadow[i])
        san_report(HazardKind::kUninitRead, loc, l,
                   "read of uninitialized array element '" + name + "[" +
                       std::to_string(flat[static_cast<std::size_t>(l)]
                                          .as_i()) +
                       "]'");
      out[static_cast<std::size_t>(l)] = slot.data[i];
    }
  }
}

void BlockCore::flatten_dim(Value* flat, LaneView idx, std::int64_t dim,
                            bool first, const Mask& mask, SourceLoc loc) {
  for (int l = 0; l < nlanes_; ++l) {
    if (!mask[static_cast<std::size_t>(l)]) continue;
    std::int64_t i = idx.at(static_cast<std::size_t>(l)).as_i();
    if (i < 0 || i >= dim)
      throw SimError("index " + std::to_string(i) + " out of bounds [0," +
                     std::to_string(dim) + ") for array at " + loc.str());
    auto& f = flat[static_cast<std::size_t>(l)];
    f = Value::of_int(first ? i : f.as_i() * dim + i);
  }
}

// ---------------- scalar variable paths ----------------

Slot& BlockCore::var_read_check(std::int32_t slot_id, const std::string& name,
                                const Mask& mask, SourceLoc loc) {
  Slot& slot = slot_at(slot_id, name, loc);
  if (slot.is_buffer_param)
    throw SimError("pointer '" + name +
                   "' used as a value (only indexing is supported)");
  if (slot.type.is_array())
    throw SimError("array '" + name + "' used without an index");
  if (slot.is_uniform_param) return slot;
  if (san_ && shfl_arg_depth_ == 0 && !slot.shadow.empty()) {
    for (int l = 0; l < nlanes_; ++l) {
      if (!mask[static_cast<std::size_t>(l)]) continue;
      if (!slot.shadow[static_cast<std::size_t>(l)]) {
        san_report(HazardKind::kUninitRead, loc, l,
                   "read of uninitialized variable '" + name + "'");
        break;  // one report per access; dedupe absorbs repeats
      }
    }
  }
  return slot;
}

void BlockCore::store_var(std::int32_t slot_id, const std::string& name,
                          const Mask& mask, LaneView val, SourceLoc loc) {
  Slot& slot = slot_at(slot_id, name, loc);
  if (slot.is_buffer_param || slot.type.is_array())
    throw SimError("cannot assign to '" + name + "' without an index");
  if (slot.is_uniform_param)
    throw SimError("cannot assign to kernel parameter '" + name +
                   "' (treated as uniform)");
  charge_issue(mask, opt_.timing.weights.alu);
  const ScalarType to = slot.type.scalar;
  Value* data = slot.data.data();
  std::uint8_t* shadow = slot.shadow.empty() ? nullptr : slot.shadow.data();
  for (int l = 0; l < nlanes_; ++l)
    if (mask[static_cast<std::size_t>(l)]) {
      data[static_cast<std::size_t>(l)] =
          coerce(val.at(static_cast<std::size_t>(l)), to);
      if (shadow) shadow[static_cast<std::size_t>(l)] = 1;
    }
}

void BlockCore::decl_scalar_init(Slot& slot, ScalarType to, const Mask& mask,
                                 LaneView val) {
  charge_issue(mask, opt_.timing.weights.alu);
  Value* data = slot.data.data();
  std::uint8_t* shadow = slot.shadow.empty() ? nullptr : slot.shadow.data();
  for (int l = 0; l < nlanes_; ++l)
    if (mask[static_cast<std::size_t>(l)]) {
      data[static_cast<std::size_t>(l)] =
          coerce(val.at(static_cast<std::size_t>(l)), to);
      if (shadow) shadow[static_cast<std::size_t>(l)] = 1;
    }
}

void BlockCore::decl_fill(Slot& slot, const Type& type, std::size_t e,
                          Value raw) {
  Value val = coerce(raw, type.scalar);
  if (type.space == AddrSpace::kShared) {
    slot.data[e] = val;
  } else {
    std::int64_t elems = type.element_count();
    for (int l = 0; l < nlanes_; ++l)
      slot.data[static_cast<std::size_t>(l) * static_cast<std::size_t>(elems) +
                e] = val;
  }
}

void BlockCore::decl_shadow_all(Slot& slot, const Type& type) {
  if (!san_) return;
  if (type.space == AddrSpace::kShared) {
    for (std::int64_t e = 0; e < type.element_count(); ++e)
      smem_shadow_[slot.base_word + static_cast<std::uint64_t>(e)].init = true;
  } else {
    std::fill(slot.shadow.begin(), slot.shadow.end(), 1);
  }
}

// ---------------- operators ----------------

void BlockCore::do_binop(BinOp op, LaneView a, LaneView b, const Mask& mask,
                         Value* out, SourceLoc loc) {
  double w = opt_.timing.weights.alu;
  if (op == BinOp::kDiv || op == BinOp::kMod) {
    // Int div/mod and float div are multi-cycle.
    w = opt_.timing.weights.idiv_imod;
    if (op == BinOp::kDiv && (a.at(first_active(mask)).is_float() ||
                              b.at(first_active(mask)).is_float()))
      w = opt_.timing.weights.fdiv_sqrt_transcendental;
  }
  charge_issue(mask, w);
  dispatch_binop(op, a, b, mask, out, loc);
}

void BlockCore::do_compound(BinOp op, LaneView oldv, LaneView rhs,
                            const Mask& mask, Value* out, SourceLoc loc) {
  charge_issue(mask, opt_.timing.weights.alu);
  dispatch_binop(op, oldv, rhs, mask, out, loc);
}

void BlockCore::do_unop(UnOp op, LaneView a, const Mask& mask, Value* out) {
  charge_issue(mask, opt_.timing.weights.alu);
  for (int l = 0; l < nlanes_; ++l) {
    if (!mask[static_cast<std::size_t>(l)]) continue;
    Value x = a.at(static_cast<std::size_t>(l));
    if (op == UnOp::kNeg)
      x = x.is_float() ? Value::of_float(-x.f) : Value::of_int(-x.i);
    else
      x = Value::of_int(x.truthy() ? 0 : 1);
    out[static_cast<std::size_t>(l)] = x;
  }
}

void BlockCore::do_cast(ScalarType to, LaneView a, const Mask& mask,
                        Value* out) {
  charge_issue(mask, opt_.timing.weights.alu);
  for (int l = 0; l < nlanes_; ++l) {
    if (!mask[static_cast<std::size_t>(l)]) continue;
    out[static_cast<std::size_t>(l)] =
        coerce(a.at(static_cast<std::size_t>(l)), to);
  }
}

void BlockCore::do_select(LaneView c, LaneView a, LaneView b,
                          const Mask& mask, Value* out) {
  charge_issue(mask, opt_.timing.weights.alu);
  for (int l = 0; l < nlanes_; ++l) {
    if (!mask[static_cast<std::size_t>(l)]) continue;
    out[static_cast<std::size_t>(l)] =
        c.at(static_cast<std::size_t>(l)).truthy()
            ? a.at(static_cast<std::size_t>(l))
            : b.at(static_cast<std::size_t>(l));
  }
}

void BlockCore::do_unary_math(double (*fn)(double), bool sfu, LaneView a,
                              const Mask& mask, Value* out) {
  charge_issue(mask, sfu ? opt_.timing.weights.fdiv_sqrt_transcendental
                         : opt_.timing.weights.alu);
  for (int l = 0; l < nlanes_; ++l) {
    if (!mask[static_cast<std::size_t>(l)]) continue;
    out[static_cast<std::size_t>(l)] =
        Value::of_float(fn(a.at(static_cast<std::size_t>(l)).as_f()))
            .to_f32();
  }
}

void BlockCore::do_abs(LaneView a, const Mask& mask, Value* out) {
  charge_issue(mask, opt_.timing.weights.alu);
  for (int l = 0; l < nlanes_; ++l) {
    if (!mask[static_cast<std::size_t>(l)]) continue;
    Value x = a.at(static_cast<std::size_t>(l));
    out[static_cast<std::size_t>(l)] = x.is_float()
                                           ? Value::of_float(std::fabs(x.f))
                                           : Value::of_int(std::abs(x.i));
  }
}

void BlockCore::do_binmath(Builtin b, LaneView x, LaneView y,
                           const Mask& mask, Value* out) {
  charge_issue(mask, b == Builtin::kPowf
                         ? 2 * opt_.timing.weights.fdiv_sqrt_transcendental
                         : opt_.timing.weights.alu);
  const bool is_min = b == Builtin::kMin || b == Builtin::kFminf;
  const bool force_float = b == Builtin::kFminf || b == Builtin::kFmaxf;
  for (int l = 0; l < nlanes_; ++l) {
    if (!mask[static_cast<std::size_t>(l)]) continue;
    Value xv = x.at(static_cast<std::size_t>(l));
    Value yv = y.at(static_cast<std::size_t>(l));
    if (b == Builtin::kPowf) {
      out[static_cast<std::size_t>(l)] =
          Value::of_float(std::pow(xv.as_f(), yv.as_f())).to_f32();
    } else if (is_min) {
      if (xv.is_float() || yv.is_float() || force_float)
        out[static_cast<std::size_t>(l)] =
            Value::of_float(std::min(xv.as_f(), yv.as_f())).to_f32();
      else
        out[static_cast<std::size_t>(l)] = Value::of_int(std::min(xv.i, yv.i));
    } else {
      if (xv.is_float() || yv.is_float() || force_float)
        out[static_cast<std::size_t>(l)] =
            Value::of_float(std::max(xv.as_f(), yv.as_f())).to_f32();
      else
        out[static_cast<std::size_t>(l)] = Value::of_int(std::max(xv.i, yv.i));
    }
  }
}

// ---------------- builtins with shared semantics ----------------

void BlockCore::do_sync(const Mask& mask, SourceLoc loc) {
  ++sync_ops_;
  charge_issue(mask, opt_.timing.weights.sync);
  for_each_active_warp(mask, [&](int w, int, int) {
    charge_latency(w, spec_.sync_latency_cycles);
  });
  if (san_) note_barrier(loc, mask);
}

void BlockCore::make_broad_mask(const Mask& mask, Mask& broad) {
  broad.assign(static_cast<std::size_t>(nlanes_), 0);
  for_each_active_warp(mask, [&](int, int lo, int hi) {
    for (int l = lo; l < hi; ++l) broad[static_cast<std::size_t>(l)] = 1;
  });
}

void BlockCore::do_shfl(Builtin b, const std::string& callee, LaneView var,
                        LaneView sel, LaneView width, const Mask& mask,
                        Value* out, SourceLoc loc, std::int32_t var_slot,
                        const std::string* var_name) {
  ++shfl_ops_;
  charge_issue(mask, opt_.timing.weights.shfl);
  for_each_active_warp(mask, [&](int w, int, int) {
    charge_latency(w, spec_.shfl_latency_cycles);
  });
  std::vector<int> src_of;
  if (san_) src_of.assign(static_cast<std::size_t>(nlanes_), -1);
  for (int l = 0; l < nlanes_; ++l) {
    if (!mask[static_cast<std::size_t>(l)]) continue;
    int lane = l % spec_.warp_size;
    int warp_base = l - lane;
    std::int64_t wdt = width.at(static_cast<std::size_t>(l)).as_i();
    if (wdt <= 0 || wdt > spec_.warp_size || (wdt & (wdt - 1)) != 0)
      throw SimError("__shfl width must be a power of two in [1,32]");
    int group_base = lane / static_cast<int>(wdt) * static_cast<int>(wdt);
    std::int64_t s = sel.at(static_cast<std::size_t>(l)).as_i();
    int src_lane;
    if (b == Builtin::kShfl) {
      src_lane = group_base + static_cast<int>(s % wdt);
    } else if (b == Builtin::kShflUp) {
      int cand = lane - static_cast<int>(s);
      src_lane = cand < group_base ? lane : cand;
    } else if (b == Builtin::kShflDown) {
      int cand = lane + static_cast<int>(s);
      src_lane = cand >= group_base + static_cast<int>(wdt) ? lane : cand;
    } else {  // __shfl_xor
      int cand = group_base + ((lane - group_base) ^ static_cast<int>(s));
      src_lane = cand < group_base + static_cast<int>(wdt) ? cand : lane;
    }
    int src_tid = warp_base + src_lane;
    // A negative selector (e.g. __shfl(v, -1, 32)) or a delta that
    // escapes the warp produces an out-of-range source lane: undefined
    // on hardware. Recover with the caller's own value, as the hardware
    // effectively does for out-of-range segments.
    if (src_lane < 0 || src_lane >= spec_.warp_size) {
      if (san_)
        san_report(HazardKind::kShflHazard, loc, l,
                   callee + " source lane " + std::to_string(src_lane) +
                       " is outside [0," + std::to_string(spec_.warp_size) +
                       ")");
      src_tid = l;
    } else if (src_tid >= nlanes_) {
      if (san_)
        san_report(HazardKind::kShflHazard, loc, l,
                   callee + " source lane " + std::to_string(src_lane) +
                       " lies beyond the thread block");
      src_tid = l;
    } else if (san_ && !mask[static_cast<std::size_t>(src_tid)]) {
      san_report(HazardKind::kShflHazard, loc, l,
                 callee + " reads from inactive source lane " +
                     std::to_string(src_lane) +
                     " (undefined on real hardware)");
    }
    if (san_) src_of[static_cast<std::size_t>(l)] = src_tid;
    out[static_cast<std::size_t>(l)] =
        var.at(static_cast<std::size_t>(src_tid));
  }
  if (san_ && var_name) {
    // Post-hoc init check on the lanes actually read as sources. The
    // bound slot id replaces the old vars_.find string lookup.
    const Slot* vs =
        var_slot >= 0 && frame_[static_cast<std::size_t>(var_slot)].live
            ? &frame_[static_cast<std::size_t>(var_slot)]
            : nullptr;
    if (vs && vs->type.is_scalar() && !vs->is_uniform_param &&
        !vs->shadow.empty()) {
      for (int l = 0; l < nlanes_; ++l) {
        int s = src_of[static_cast<std::size_t>(l)];
        if (s >= 0 && !vs->shadow[static_cast<std::size_t>(s)]) {
          san_report(HazardKind::kUninitRead, loc, l,
                     callee + " reads uninitialized variable '" + *var_name +
                         "' from lane " +
                         std::to_string(s % spec_.warp_size));
          break;
        }
      }
    }
  }
}

// ---------------- sanitizer hooks ----------------

bool BlockCore::portable_races() const {
  return san_->engine->options().race_mode ==
         SanitizerEngine::RaceMode::kPortable;
}

void BlockCore::san_report(HazardKind kind, SourceLoc loc, int lane,
                           std::string msg) {
  HazardReport r;
  r.kind = kind;
  r.kernel = kernel_.name;
  r.block = block_idx_;
  r.thread = lane;
  r.loc = loc;
  r.message = std::move(msg);
  // Collected locally; Interpreter::run replays block streams through
  // the engine in block-index order (dedupe / limit applied there).
  san_->reports.push_back(std::move(r));
}

void BlockCore::note_shared_write(const Slot& slot, const std::string& name,
                                  std::size_t idx, int lane, Value val,
                                  SourceLoc loc) {
  SharedShadow& sh = smem_shadow_[slot.base_word + idx];
  int w = lane / spec_.warp_size;
  std::uint64_t gen = warp_gen_[static_cast<std::size_t>(w)];
  if (sh.write_access == access_seq_ && sh.writer_lane != lane &&
      !value_eq(sh.written, val)) {
    san_report(HazardKind::kSharedRace, loc, lane,
               "write-write race on shared '" + name + "[" +
                   std::to_string(idx) + "]': lanes " +
                   std::to_string(sh.writer_lane) + " and " +
                   std::to_string(lane) +
                   " store different values in the same instruction");
  } else if (portable_races() && sh.writer_warp >= 0 && sh.write_gen == gen &&
             sh.writer_warp != w && !value_eq(sh.written, val)) {
    san_report(HazardKind::kSharedRace, loc, lane,
               "write-write race on shared '" + name + "[" +
                   std::to_string(idx) + "]' with warp " +
                   std::to_string(sh.writer_warp) + "'s store at " +
                   sh.write_loc.str() + " in the same barrier interval");
  }
  if (portable_races() && sh.reader_warp != -1 && sh.read_gen == gen &&
      sh.reader_warp != w) {
    san_report(HazardKind::kSharedRace, loc, lane,
               "read-write race on shared '" + name + "[" +
                   std::to_string(idx) +
                   "]': store overlaps another warp's read in the same "
                   "barrier interval");
  }
  sh.init = true;
  sh.write_access = access_seq_;
  sh.writer_lane = lane;
  sh.written = val;
  sh.write_gen = gen;
  sh.writer_warp = w;
  sh.write_loc = loc;
}

void BlockCore::note_shared_read(const Slot& slot, const std::string& name,
                                 std::size_t idx, int lane, SourceLoc loc) {
  SharedShadow& sh = smem_shadow_[slot.base_word + idx];
  int w = lane / spec_.warp_size;
  std::uint64_t gen = warp_gen_[static_cast<std::size_t>(w)];
  if (!sh.init && shfl_arg_depth_ == 0)
    san_report(HazardKind::kUninitRead, loc, lane,
               "read of uninitialized shared memory '" + name + "[" +
                   std::to_string(idx) + "]'");
  if (portable_races() && sh.writer_warp >= 0 && sh.write_gen == gen &&
      sh.writer_warp != w) {
    san_report(HazardKind::kSharedRace, loc, lane,
               "read-write race on shared '" + name + "[" +
                   std::to_string(idx) + "]': word written by warp " +
                   std::to_string(sh.writer_warp) + " at " +
                   sh.write_loc.str() + " in the same barrier interval");
  }
  if (sh.reader_warp == -1 || sh.read_gen != gen)
    sh.reader_warp = w;
  else if (sh.reader_warp != w)
    sh.reader_warp = -2;
  sh.read_gen = gen;
}

void BlockCore::note_barrier(SourceLoc loc, const Mask& mask) {
  int arrived = 0;
  int absent_warp = -1;
  int absent_lane = -1;
  for (int w = 0; w < nwarps_; ++w) {
    int lo = w * spec_.warp_size;
    int hi = std::min(lo + spec_.warp_size, nlanes_);
    bool active = false;
    int live = -1;
    for (int l = lo; l < hi; ++l) {
      if (mask[static_cast<std::size_t>(l)]) active = true;
      if (!returned_[static_cast<std::size_t>(l)] && live < 0) live = l;
    }
    if (active) {
      ++warp_gen_[static_cast<std::size_t>(w)];
      ++arrived;
    } else if (live >= 0 && absent_warp < 0) {
      absent_warp = w;
      absent_lane = live;
    }
  }
  if (arrived > 0 && absent_warp >= 0)
    san_report(HazardKind::kBarrierDivergence, loc, absent_lane,
               "__syncthreads reached by " + std::to_string(arrived) + " of " +
                   std::to_string(nwarps_) + " warps; warp " +
                   std::to_string(absent_warp) +
                   " has live threads that never arrive (deadlock on "
                   "real hardware)");
}

// ---------------- variable helpers ----------------

Slot& BlockCore::slot_at(std::int32_t s, const std::string& name,
                         SourceLoc loc) {
  if (s >= 0) {
    Slot& slot = frame_[static_cast<std::size_t>(s)];
    if (slot.live) return slot;
  } else if (s == kSlotUnbound) {
    throw SimError("internal: unbound reference to '" + name +
                   "' (kernel AST modified after slot binding)");
  }
  throw SimError("use of undeclared variable '" + name + "' at " + loc.str());
}

Slot& BlockCore::declare(const DeclStmt& d) {
  if (d.sim_slot < 0) throw SimError(unbound_decl_message(d.name));
  if (d.type.space == AddrSpace::kShared && !d.type.is_array())
    throw SimError("unsupported construct: shared-memory scalar '" + d.name +
                   "' at " + d.loc().str() +
                   "; declare a one-element __shared__ array instead");
  Slot& slot = frame_[static_cast<std::size_t>(d.sim_slot)];
  if (!slot.live) {
    slot.type = d.type;
    if (d.type.space == AddrSpace::kShared) {
      slot.data.assign(static_cast<std::size_t>(d.type.element_count()),
                       Value{});
      slot.base_word = smem_word_cursor_;
      smem_word_cursor_ += static_cast<std::uint64_t>(d.type.element_count());
    } else if (d.type.is_array()) {  // local / register / constant array
      slot.data.assign(
          static_cast<std::size_t>(d.type.element_count() * nlanes_), Value{});
      slot.base_word = local_word_cursor_;
      local_word_cursor_ += static_cast<std::uint64_t>(d.type.element_count());
    } else {  // register scalar
      slot.data.assign(static_cast<std::size_t>(nlanes_), Value{});
    }
    if (san_ && d.type.space != AddrSpace::kShared)
      slot.shadow.assign(slot.data.size(), 0);
    slot.live = true;
  }
  return slot;
}

void BlockCore::binop_fail(const char* prefix, SourceLoc loc) {
  throw SimError(std::string(prefix) + loc.str());
}

template <BinOp kOp>
void BlockCore::binop_lanes(LaneView a, LaneView b, const Mask& mask,
                            Value* out, SourceLoc loc) {
  // Split on operand shape so the lane loop reads vectors directly
  // instead of re-testing LaneView's vec-or-splat branch every lane.
  const std::uint8_t* m = mask.data();
  const std::size_t n = static_cast<std::size_t>(nlanes_);
  if (a.vec && b.vec) {
    const Value* av = a.vec;
    const Value* bv = b.vec;
    for (std::size_t l = 0; l < n; ++l)
      if (m[l]) out[l] = apply_binop<kOp>(av[l], bv[l], loc);
  } else if (a.vec) {
    const Value* av = a.vec;
    const Value bs = b.splat;
    for (std::size_t l = 0; l < n; ++l)
      if (m[l]) out[l] = apply_binop<kOp>(av[l], bs, loc);
  } else if (b.vec) {
    const Value as = a.splat;
    const Value* bv = b.vec;
    for (std::size_t l = 0; l < n; ++l)
      if (m[l]) out[l] = apply_binop<kOp>(as, bv[l], loc);
  } else {
    // Uniform operands give a uniform result — evaluate once, but only
    // if some lane is active, so an error (e.g. division by zero) still
    // fires exactly when the per-lane loop would have fired it.
    bool done = false;
    Value r{};
    for (std::size_t l = 0; l < n; ++l) {
      if (!m[l]) continue;
      if (!done) {
        r = apply_binop<kOp>(a.splat, b.splat, loc);
        done = true;
      }
      out[l] = r;
    }
  }
}

void BlockCore::dispatch_binop(BinOp op, LaneView a, LaneView b,
                               const Mask& mask, Value* out, SourceLoc loc) {
  switch (op) {
    case BinOp::kAdd: return binop_lanes<BinOp::kAdd>(a, b, mask, out, loc);
    case BinOp::kSub: return binop_lanes<BinOp::kSub>(a, b, mask, out, loc);
    case BinOp::kMul: return binop_lanes<BinOp::kMul>(a, b, mask, out, loc);
    case BinOp::kDiv: return binop_lanes<BinOp::kDiv>(a, b, mask, out, loc);
    case BinOp::kMod: return binop_lanes<BinOp::kMod>(a, b, mask, out, loc);
    case BinOp::kLt: return binop_lanes<BinOp::kLt>(a, b, mask, out, loc);
    case BinOp::kLe: return binop_lanes<BinOp::kLe>(a, b, mask, out, loc);
    case BinOp::kGt: return binop_lanes<BinOp::kGt>(a, b, mask, out, loc);
    case BinOp::kGe: return binop_lanes<BinOp::kGe>(a, b, mask, out, loc);
    case BinOp::kEq: return binop_lanes<BinOp::kEq>(a, b, mask, out, loc);
    case BinOp::kNe: return binop_lanes<BinOp::kNe>(a, b, mask, out, loc);
    case BinOp::kLAnd: return binop_lanes<BinOp::kLAnd>(a, b, mask, out, loc);
    case BinOp::kLOr: return binop_lanes<BinOp::kLOr>(a, b, mask, out, loc);
    case BinOp::kBitAnd:
      return binop_lanes<BinOp::kBitAnd>(a, b, mask, out, loc);
    case BinOp::kBitOr:
      return binop_lanes<BinOp::kBitOr>(a, b, mask, out, loc);
    case BinOp::kBitXor:
      return binop_lanes<BinOp::kBitXor>(a, b, mask, out, loc);
    case BinOp::kShl: return binop_lanes<BinOp::kShl>(a, b, mask, out, loc);
    case BinOp::kShr: return binop_lanes<BinOp::kShr>(a, b, mask, out, loc);
  }
  throw SimError("unreachable binop");
}

}  // namespace cudanp::sim::exec
