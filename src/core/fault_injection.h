/// \file
/// Deterministic fault injection for the serving/robustness stack (ROADMAP
/// "heavy traffic ... as many scenarios as you can imagine").
///
/// Production code paths carry named fault points — compiled in
/// unconditionally — that do nothing until armed. Arming happens either
/// programmatically (FaultRegistry, used by robustness_test) or from the
/// environment:
///
///     TPUPERF_FAULTS="featurize.throw:every=3;batch.slow:every=2,after=10"
///
/// Grammar: semicolon-separated entries, each
/// `point[:every=N[,after=M][,times=K]]`. `every` defaults to 1 (fire on
/// every eligible hit), `after` to 0 (no warm-up grace), `times` to 0
/// (unlimited; K > 0 stops firing after K injections — a transient fault).
/// Malformed entries warn on stderr and are skipped — consistent with
/// core::EnvInt, a typo must never silently arm (or fail to arm) something
/// else.
///
/// Schedule: each point keeps a process-wide atomic hit counter h (1-based).
/// Hit h fires iff h > after and (h - after) % every == 0. The schedule is a
/// pure function of the hit sequence — no clocks, no RNG — so a test or CI
/// chaos run that replays the same request stream injects the same faults.
///
/// Cost when disarmed: ONE relaxed atomic load (a global three-state flag),
/// no map lookup, no lock — cheap enough to leave in every hot path
/// (tpubench's serve_poisson runs with every point compiled in, disarmed).
///
/// Points currently compiled in:
///   featurize.throw     PreparedCache::Get, miss path (core/trainer.cpp)
///   plan.compile_fail   LearnedCostModel::CompilePlan (core/cost_model.cpp),
///                       reached by every Predict* on a plan-cache miss
///   store.short_read    DatasetReader::ForEachRecord record walks
///                       (dataset/store.cpp);
///                       throws data::StoreError, modeling mid-stream
///                       truncation (also covers snapshot loads)
///   snapshot.load_fail  serve::LoadModelSnapshot; throws data::StoreError,
///                       modeling a transient load failure
///   batch.slow          serve ProcessBatch; sleeps ~2ms per armed batch
///   model.predict_throw serve ProcessBatch; model-level batch failure
///                       (drives the circuit breaker)
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tpuperf::core {

/// Thrown by MaybeInjectFault when an armed point's schedule fires.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& point)
      : std::runtime_error("injected fault at point '" + point + "'") {}
};

/// One point's deterministic schedule (see file comment for the fire rule).
struct FaultSpec {
  std::uint64_t every = 1;  // fire every Nth eligible hit (>= 1)
  std::uint64_t after = 0;  // first `after` hits never fire
  std::uint64_t times = 0;  // total fire cap; 0 = unlimited
};

/// Process-wide registry of armed fault points. Thread-safe: arming replaces
/// the whole armed set atomically with respect to concurrent checks.
class FaultRegistry {
 public:
  static FaultRegistry& Instance();

  /// Replaces ALL armed points with those parsed from `spec` (the
  /// TPUPERF_FAULTS grammar). Malformed entries warn on stderr and are
  /// skipped; an empty spec disarms everything. Hit counters reset.
  void ArmSpec(std::string_view spec);
  /// Arms (or re-arms, resetting its counters) a single point, keeping the
  /// others. `spec.every` is clamped to >= 1.
  void Arm(const std::string& point, FaultSpec spec);
  /// ArmSpec(getenv("TPUPERF_FAULTS")), treating unset as "".
  void ArmFromEnv();
  void DisarmAll();

  /// Times the point was checked while armed / times its schedule fired.
  /// Zero for unarmed/unknown points.
  std::uint64_t hits(const std::string& point) const;
  std::uint64_t fired(const std::string& point) const;
  bool armed(const std::string& point) const;

  /// Slow path behind FaultPointFires — call that instead.
  bool ShouldFireSlow(const char* point) noexcept;

 private:
  FaultRegistry() = default;
  struct State;
  State& state() noexcept;
};

namespace fault_detail {
// 0 = not yet initialized (first check arms from the environment),
// 1 = nothing armed (the hot-path early-out), 2 = at least one point armed.
extern std::atomic<int> g_fault_state;
}  // namespace fault_detail

/// True when `point` is armed and its deterministic schedule fires on this
/// hit. The disarmed cost is a single relaxed atomic load.
inline bool FaultPointFires(const char* point) noexcept {
  if (fault_detail::g_fault_state.load(std::memory_order_relaxed) == 1) {
    return false;
  }
  return FaultRegistry::Instance().ShouldFireSlow(point);
}

/// Throws FaultInjected when FaultPointFires(point).
inline void MaybeInjectFault(const char* point) {
  if (FaultPointFires(point)) throw FaultInjected(point);
}

}  // namespace tpuperf::core
