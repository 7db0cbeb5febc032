#include "sim/exec_core.hpp"

#include <algorithm>
#include <sstream>
#include <string>

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
      lanes_(spec.warp_size, cfg.block),
      l1_(spec.l1_cache_bytes / std::max(resident_blocks, 1),
          spec.l1_line_bytes) {
  const auto nwarps = static_cast<std::size_t>(lanes_.nwarps());
  warp_issue_.assign(nwarps, 0.0);
  warp_latency_.assign(nwarps, 0.0);
  warp_pending_.assign(nwarps, 0.0);
  runs_.assign(nwarps, {});
  san_ = san;
  if (san_) {
    warp_gen_.assign(nwarps, 0);
    portable_ = san_->engine->options().race_mode ==
                SanitizerEngine::RaceMode::kPortable;
    smem_shadow_.reserve(static_cast<std::size_t>(bound.shared_words_bound));
  }
  frame_.resize(bound.num_slots());
  init_geometry();
  bind_params();
}

void BlockCore::init_geometry() {
  const auto n = static_cast<std::size_t>(lanes_.nlanes());
  for (int g = kGeomThreadIdxX; g <= kGeomThreadIdxZ; ++g) geom_[g].resize(n);
  lanes_.for_each_geometry(
      cfg_.grid, block_idx_,
      [&](int g, int l, int v) { geom_[g][static_cast<std::size_t>(l)] = v; },
      [&](int g, int v) { geom_[g].assign(n, v); });
}

void BlockCore::bind_params() {
  check_arg_count(kernel_, cfg_.args.size());
  for (std::size_t i = 0; i < kernel_.params.size(); ++i) {
    const KernelArg& arg = cfg_.args[i];
    check_arg_kind(kernel_, i, std::holds_alternative<BufferId>(arg));
    Slot& slot = frame_[i];  // binder assigns params slots 0..n-1
    slot.type = kernel_.params[i].type;
    if (const auto* buf = std::get_if<BufferId>(&arg)) {
      slot.is_buffer_param = true;
      slot.buffer = *buf;
    } else {
      slot.is_uniform_param = true;
      slot.alloc(1);  // uniform scalar, one copy
      slot.with_cells(
          [&](auto* data, auto conv) { data[0] = conv(std::get<Value>(arg)); });
    }
  }
}

KernelStats BlockCore::collect_stats() const {
  KernelStats s;
  s.blocks = 1;
  s.warps = lanes_.nwarps();
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
  for (int w = 0; w < lanes_.nwarps(); ++w) {
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
  if (const auto& loops = regions_.loops(); !loops.empty()) {
    os << "; loop back-edges (innermost first):";
    std::size_t shown = 0;
    for (auto it = loops.rbegin(); it != loops.rend() && shown < 4;
         ++it, ++shown)
      os << " " << it->loc.str() << " x" << it->backedges;
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

void BlockCore::charge_shared(const Slot& slot, const std::int64_t* flat_idx,
                              const Mask& mask) {
  lanes_.for_each_active_warp(mask, [&](int w, int lo, std::uint32_t bits) {
    const LaneView<std::int64_t> idx{flat_idx};
    const std::optional<AffineWarp>& run =
        runs_[static_cast<std::size_t>(w)] = warp_run(idx, lo, bits);
    const auto banks = static_cast<int>(spec_.shared_mem_banks);
    int replays = run ? affine_replays(run->scaled(slot.base_word, 1), banks)
                      : 0;
    std::uint64_t words[32];
    if (replays == 0)
      replays = smem_replays(
          lane_addrs(idx, lo, bits, slot.base_word, 1, words), bits, banks);
    smem_accesses_ += replays;
    smem_replays_ += replays - 1;
    warp_issue_[static_cast<std::size_t>(w)] += opt_.timing.weights.mem_issue;
    charge_latency(w, spec_.smem_latency_cycles + (replays - 1));
  });
}

void BlockCore::charge_local(const Slot& slot, const std::int64_t* elem_idx,
                             const Mask& mask) {
  // Local memory is interleaved per thread: addr(lane, e) =
  // local_base + (e * nlanes + lane) * 4, matching the CUDA ABI layout
  // that makes uniform-index accesses coalesced.
  const auto nlanes = static_cast<std::uint64_t>(lanes_.nlanes());
  lanes_.for_each_active_warp(mask, [&](int w, int lo, std::uint32_t bits) {
    // Unique 128B lines of this access probe the L1, in lane order. A
    // full warp reading one element e reads 32 consecutive words from
    // e * nlanes + lo on.
    std::uint64_t lines[32];
    std::uint64_t first_line = 0;
    const auto run = warp_run(LaneView<std::int64_t>{elem_idx}, lo, bits);
    int nlines = 0;
    if (run && run->stride == 0)
      nlines = affine_lines(
          {kLocalSpaceBase + (slot.base_word + run->first * nlanes +
                              static_cast<std::uint64_t>(lo)) *
                                 4,
           4},
          128, &first_line);
    if (nlines > 0) {
      for (int j = 0; j < nlines; ++j)
        lines[j] = first_line + static_cast<std::uint64_t>(j);
    } else {
      std::uint64_t addrs[32];
      for (std::uint32_t b = bits; b; b &= b - 1) {
        const auto l = static_cast<std::uint64_t>(lo + std::countr_zero(b));
        const auto e = static_cast<std::uint64_t>(elem_idx[l]);
        addrs[l - static_cast<std::uint64_t>(lo)] =
            kLocalSpaceBase + (slot.base_word + e * nlanes + l) * 4;
      }
      nlines = warp_lines({addrs, 32}, bits, 128, lines);
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

void BlockCore::charge_array(const Slot& slot, const std::int64_t* flat,
                             const Mask& mask) {
  if (slot.type.space == AddrSpace::kLocal) {
    charge_local(slot, flat, mask);
  } else if (slot.type.space == AddrSpace::kConstant) {
    // Constant cache broadcasts one word per cycle: lanes reading
    // distinct words serialize (paper Sec. 3.4's intra-warp hazard).
    lanes_.for_each_active_warp(mask, [&](int w, int lo, std::uint32_t bits) {
      const LaneView<std::int64_t> idx{flat};
      const auto run = warp_run(idx, lo, bits);
      int replays = run ? affine_replays(*run, 1) : 0;
      std::uint64_t words[32];
      if (replays == 0)
        replays = smem_replays(lane_addrs(idx, lo, bits, 0, 1, words), bits, 1);
      warp_issue_[static_cast<std::size_t>(w)] +=
          opt_.timing.weights.mem_issue * replays;
      charge_latency(w, spec_.smem_latency_cycles);
    });
  } else {
    charge_issue(mask, opt_.timing.weights.alu);  // register-file access
  }
}

// ---------------- scalar variable paths ----------------

Slot& BlockCore::var_read_check(std::int32_t slot_id, const std::string& name,
                                const Mask& mask, SourceLoc loc) {
  Slot& slot = frame_[static_cast<std::size_t>(slot_id)];
  if (san_ && !regions_.in_shfl_arg() && !slot.shadow.empty()) {
    // One report per access, at the first uninitialized active lane;
    // dedupe absorbs repeats.
    int first = -1;
    lanes_.for_each_lane(mask, [&](std::size_t l) {
      if (first < 0 && !slot.shadow[l]) first = static_cast<int>(l);
    });
    if (first >= 0)
      san_report(HazardKind::kUninitRead, loc, first,
                 hazard::text(hazard::Rule::kUninitVariable, name));
  }
  return slot;
}

// ---------------- builtins with shared semantics ----------------

void BlockCore::do_sync(const Mask& mask, SourceLoc loc) {
  ++sync_ops_;
  charge_issue(mask, opt_.timing.weights.sync);
  lanes_.for_each_active_warp(mask, [&](int w, int, std::uint32_t) {
    charge_latency(w, spec_.sync_latency_cycles);
  });
  if (san_) note_barrier(loc, mask);
}

// ---------------- sanitizer hooks ----------------

void BlockCore::report_shfl_source(ShflSource why, const std::string& callee,
                                   std::int64_t src_lane, int lane,
                                   SourceLoc loc) {
  std::string msg = callee;
  switch (why) {
    case ShflSource::kOutsideWarp:
      msg += " source lane " + std::to_string(src_lane) + " is outside [0," +
             std::to_string(lanes_.warp_size()) + ")";
      break;
    case ShflSource::kBeyondBlock:
      msg += " source lane " + std::to_string(src_lane) +
             " lies beyond the thread block";
      break;
    case ShflSource::kInactive:
      msg += " reads from inactive source lane " + std::to_string(src_lane) +
             " (undefined on real hardware)";
      break;
    case ShflSource::kInRange:
      break;
  }
  san_report(HazardKind::kShflHazard, loc, lane, std::move(msg));
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
                                  std::size_t idx, int lane, bool differs,
                                  SourceLoc loc) {
  const hazard::Write hit = hazard::on_write(
      smem_shadow_[slot.base_word + idx], shared_access(lane), differs);
  const auto i = static_cast<std::int64_t>(idx);
  // Lockstep mode reports only what races under lockstep execution too.
  if (hit.rule == hazard::Rule::kSameAccessWrite ||
      (hit.rule != hazard::Rule::kNone && portable_))
    san_report(HazardKind::kSharedRace, loc, lane,
               hazard::text(hit.rule, name, i, lane, hit.other_lane));
  if (hit.after_read && portable_)
    san_report(HazardKind::kSharedRace, loc, lane,
               hazard::text(hazard::Rule::kReadWrite, name, i));
}

void BlockCore::note_shared_read(const Slot& slot, const std::string& name,
                                 std::size_t idx, int lane, SourceLoc loc) {
  const hazard::Rule hit =
      hazard::on_read(smem_shadow_[slot.base_word + idx], shared_access(lane));
  const bool race = hit == hazard::Rule::kWriteRead;
  if (race ? portable_
           : hit == hazard::Rule::kUninitShared && !regions_.in_shfl_arg())
    san_report(race ? HazardKind::kSharedRace : HazardKind::kUninitRead, loc,
               lane, hazard::text(hit, name, static_cast<std::int64_t>(idx)));
}

void BlockCore::note_barrier(SourceLoc loc, const Mask& mask) {
  int arrived = 0;
  lanes_.for_each_active_warp(mask, [&](int w, int, std::uint32_t) {
    ++warp_gen_[static_cast<std::size_t>(w)];
    ++arrived;
  });
  const int absent = lanes_.absent_lane(mask, regions_.returned());
  if (arrived > 0 && absent >= 0)
    san_report(HazardKind::kBarrierDivergence, loc, absent,
               "__syncthreads reached by " + std::to_string(arrived) + " of " +
                   std::to_string(lanes_.nwarps()) + " warps; warp " +
                   std::to_string(lanes_.warp_of(absent)) +
                   " has live threads that never arrive (deadlock on "
                   "real hardware)");
}

// ---------------- variable helpers ----------------

Slot& BlockCore::declare(const DeclStmt& d) {
  Slot& slot = frame_[static_cast<std::size_t>(d.sim_slot)];
  if (!slot.declared) {
    slot.type = d.type;
    const auto elems = static_cast<std::size_t>(d.type.element_count());
    if (d.type.space == AddrSpace::kShared) {
      slot.alloc(elems);
      slot.base_word = smem_word_cursor_;
      smem_word_cursor_ += elems;
    } else if (d.type.is_array()) {  // local / register / constant array
      slot.alloc(elems * static_cast<std::size_t>(lanes_.nlanes()));
      slot.base_word = local_word_cursor_;
      local_word_cursor_ += elems;
    } else {  // register scalar
      slot.alloc(static_cast<std::size_t>(lanes_.nlanes()));
    }
    slot.declared = true;
  }
  // Each execution of the declaration starts the variable unset: a loop
  // body's `float u;` must not read as initialized from the previous
  // iteration. The storage is kept, so modeled results do not move.
  if (san_ && d.type.space != AddrSpace::kShared)
    slot.shadow.assign(slot.is_float() ? slot.f.size() : slot.i.size(), 0);
  return slot;
}

void BlockCore::binop_fail(const char* what, SourceLoc loc) {
  throw SimError(what + hazard::at(loc));
}

void BlockCore::bounds_fail(hazard::Rule r, const std::string& name,
                            std::int64_t i, std::int64_t n, SourceLoc loc) {
  throw SimError(hazard::text(r, name, i, n) + hazard::at(loc));
}

}  // namespace cudanp::sim::exec
