// Symbolic equivalence certification of NP variants (the third
// validation leg next to sanitize + output cross-check).
//
// The Certifier runs the baseline kernel and one transformed variant
// through sim/symexec.* on the same symbolic environment (concrete
// geometry and int data, opaque float inputs) and compares the
// per-output-element expression DAGs:
//
//   identical raw DAGs              -> kProven
//   identical after normalization   -> kProven (only int cells differed)
//                                      kProvenModuloReassoc (float cells
//                                      differed only by reassociation /
//                                      commutation — the expected shape
//                                      for NP-combined reductions/scans)
//   normalized DAGs differ          -> search concrete counterexample
//                                      seeds; a mismatch that REPRODUCES
//                                      through the interpreter
//                                      -> kRefuted(seed)
//   anything unsupported, or no
//   reproducible counterexample     -> kInconclusive (empirical checks
//                                      keep the final say)
//
// A refutation is never issued on symbolic evidence alone: the concrete
// counterexample environment is replayed through Runner::execute and
// must actually misbehave (hazards, fault, or output mismatch beyond
// the mixed abs/rel tolerance). That makes kRefuted safe to treat as
// non-transient, permanently-quarantining evidence
// (FailureCause::kProvenWrong).
//
// Certificates are plain serializable records so the serve layer can
// store them content-addressed in serve::ArtifactCache and certify each
// (kernel, variant) once per daemon lifetime (see docs/robustness.md,
// "Certification"). A JobCertifier proves the baseline of one (kernel,
// workload) job once and certifies every variant against that proof.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/kernel.hpp"
#include "np/workload.hpp"
#include "sim/device.hpp"
#include "sim/interpreter.hpp"
#include "sim/symexec.hpp"
#include "support/record.hpp"
#include "transform/np_config.hpp"
#include "transform/transformer.hpp"

namespace cudanp::np {

enum class Verdict : std::uint8_t {
  /// Per-element output expressions are identical (int-exact; float
  /// cells match bit-for-bit in expression structure).
  kProven,
  /// Equal after reassociation/commutation-aware normalization of float
  /// +, *, min, max chains — equivalent up to float rounding order.
  kProvenModuloReassoc,
  /// A concrete counterexample environment makes baseline and variant
  /// disagree (replayable through the interpreter).
  kRefuted,
  /// Outside the symbolic envelope, or a symbolic mismatch that no
  /// counterexample confirmed: falls back to the empirical checks.
  kInconclusive,
};

inline constexpr record::Slug<Verdict> kVerdictSlugs[] = {
    {Verdict::kProven, "proven"},
    {Verdict::kProvenModuloReassoc, "proven-modulo-reassoc"},
    {Verdict::kRefuted, "refuted"},
    {Verdict::kInconclusive, "inconclusive"},
};

[[nodiscard]] inline const char* to_string(Verdict v) {
  return record::slug(kVerdictSlugs, v);
}

/// One certification outcome: first-class, serializable, cacheable.
struct Certificate : record::Codec<Certificate> {
  std::string kernel;
  std::string config;  // NpConfig::describe()
  Verdict verdict = Verdict::kInconclusive;
  /// Why (abort reason, mismatch description, replay evidence).
  std::string detail;
  /// kRefuted: the sym_float_input seed of the counterexample
  /// environment (0 for input-independent faults/races).
  std::uint64_t counterexample_seed = 0;
  /// Proof geometry ("grid X*Y*Z block X*Y*Z"), taken from the probe
  /// workload the proof ran on.
  std::string geometry;

  /// True when the variant may take the certified fast path.
  [[nodiscard]] bool proven() const {
    return verdict == Verdict::kProven ||
           verdict == Verdict::kProvenModuloReassoc;
  }
  [[nodiscard]] std::string str() const;

  static constexpr auto fields() {
    using R = Certificate;
    using record::field;
    return std::tuple{field("kernel", &R::kernel),
                      field("config", &R::config),
                      field("verdict", &R::verdict, kVerdictSlugs),
                      field("seed", &R::counterexample_seed),
                      field("geometry", &R::geometry),
                      field("detail", &R::detail)};
  }
};

/// Concrete float seeds tried when normalized outputs differ.
inline constexpr int kCounterexampleAttempts = 6;

struct CertifyOptions {
  /// Symbolic statement budget across the grid (both runs).
  std::int64_t max_steps = 4'000'000;
  /// Gather expansion cap for loads at symbolic indices.
  std::int64_t max_gather_cells = 4096;
  /// Expression-arena node budget across both runs and normalization
  /// (a normalization's chain scratch counts too); exceeded ->
  /// kInconclusive (bounds certification time and memory).
  std::int64_t max_nodes = 8'000'000;
  /// Interpreter knobs for replays (jobs, watchdog budget).
  sim::Interpreter::Options interp;
  /// Mixed tolerance for float comparisons in counterexample search and
  /// replay confirmation: |r-g| <= abs + rel*max(|r|,|g|).
  double f32_rel_tol = 1e-3;
  double f32_abs_tol = 1e-4;

  /// Outcome-relevant options as a stable string, for content-addressed
  /// certificate cache keys and journal fingerprints.
  [[nodiscard]] std::string fingerprint() const;
};

/// Cache hooks for certificates, keyed by the caller (the serve layer
/// binds content-addressed ArtifactCache keys in these closures; tests
/// bind plain maps). Either function may be null.
struct CertificateProvider {
  /// Returns the cached certificate for a config describe(), if any.
  std::function<std::optional<Certificate>(const std::string& config)> load;
  /// Persists a freshly computed certificate.
  std::function<void(const Certificate&)> save;
};

class Certifier {
 public:
  explicit Certifier(sim::DeviceSpec spec, CertifyOptions opt = {})
      : spec_(std::move(spec)), opt_(opt) {}

  /// Transforms `kernel` under `config` and certifies the result over
  /// the shape of `make_workload()` (buffer sizes, launch geometry and
  /// int data come from a probe workload; float data stays symbolic).
  /// Transform errors yield kInconclusive (the config is inapplicable,
  /// which the empirical path reports as such). One-shot form of
  /// JobCertifier::certify.
  [[nodiscard]] Certificate certify(const ir::Kernel& kernel,
                                    const transform::NpConfig& config,
                                    const WorkloadFactory& make_workload) const;

  [[nodiscard]] const sim::DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] const CertifyOptions& options() const { return opt_; }

 private:
  sim::DeviceSpec spec_;
  CertifyOptions opt_;
};

/// Certifies the variants of one job, one kernel over one workload
/// shape, against a single baseline proof. The probe workload, the
/// symbolic arguments and the baseline's symbolic run are built at the
/// first certify() and shared; each variant then runs in that
/// expression arena, and the arena is rolled back to it afterwards.
/// Output cells whose raw ids are equal are the same expression and
/// need no normal form; for a cell that differs, the baseline's and
/// the variant's normal forms are built in the variant's part of the
/// arena and rolled back with it. So every variant starts from the
/// arena a one-shot proof starts from: its node ids and node budget are
/// those of Certifier::certify, and its certificate does not depend on
/// which configs were certified before it.
class JobCertifier {
 public:
  /// `certifier` and `kernel` must outlive this object.
  JobCertifier(const Certifier& certifier, const ir::Kernel& kernel,
               WorkloadFactory make_workload)
      : certifier_(certifier),
        kernel_(kernel),
        make_workload_(std::move(make_workload)) {}

  [[nodiscard]] Certificate certify(const transform::NpConfig& config);
  [[nodiscard]] Certificate certify(const transform::TransformResult& variant);

 private:
  /// The shared proof environment and the baseline's symbolic run.
  struct Baseline {
    sim::Dim3 grid;
    sim::Dim3 block;
    std::string geometry;
    std::vector<sim::SymArg> args;
    sim::SymExecResult run;
    /// As the baseline run left it: marked, and rolled back to that
    /// mark after every variant.
    sim::SymArena arena;
  };
  Baseline& baseline();

  const Certifier& certifier_;
  const ir::Kernel& kernel_;
  WorkloadFactory make_workload_;
  std::optional<Baseline> baseline_;
};

/// Overwrites the float content of `w` with the certifier's concrete
/// input assignment for `seed`: float buffer element e of launch arg i
/// becomes sim::sym_float_input(seed, i, e) and float scalar args become
/// sym_float_input(seed, i, -1); int buffers and scalars are untouched
/// (they were concrete in the proof environment already). This is how
/// counterexamples replay through the interpreter byte-for-byte against
/// the symbolic evaluation.
void seed_certify_floats(Workload& w, std::uint64_t seed);

}  // namespace cudanp::np
