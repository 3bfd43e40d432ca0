// Per-tenant SLO contracts and the knobs of the admission/scheduling layer.
//
// The paper's QoS story stops at per-VD token buckets in the SA (§2.2,
// Figs. 12/13). This extends it the way Mooncake does for LLM serving: a
// tenant declares *what it needs* (a p99 latency target, a guaranteed IOPS
// share, a service class) and the admission layer decides — per node, from
// a sliding-window load prediction — whether a new I/O can still meet that
// contract or should be rejected up-front instead of queueing doomed work.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/units.h"

namespace repro::qos {

/// Service class under contention: guaranteed tenants are protected by the
/// admission floor and preferred by the DPU scheduler; best-effort tenants
/// absorb rejections first.
enum class SloClass : std::uint8_t { kGuaranteed = 0, kBestEffort = 1 };
inline constexpr int kSloClasses = 2;

/// Tenant key used for background maintenance traffic (EC rebuild, scrub).
/// No VD ever carries this id, so SloTable lookups miss and the work is
/// scheduled best-effort regardless of the originating VD's contract.
inline constexpr std::uint64_t kBackgroundTenant = ~0ull;

const char* to_string(SloClass c);
bool slo_class_from_string(const std::string& s, SloClass* out);

/// One tenant's contract. VDs without a spec behave as best-effort tenants
/// with the default target.
struct SloSpec {
  TimeNs target_p99 = ms(5);     ///< completion deadline for "goodput"
  double guaranteed_iops = 0.0;  ///< admission floor (0 = none)
  SloClass cls = SloClass::kBestEffort;
};

/// vd id -> contract. Populate during cluster setup, before traffic: the
/// admission layer caches spec pointers, so entries must not move once I/O
/// starts (same contract as `sa::QosTable`).
class SloTable {
 public:
  void set(std::uint64_t vd_id, const SloSpec& spec) {
    entries_.insert_or_assign(vd_id, spec);
  }
  const SloSpec* find(std::uint64_t vd_id) const {
    const auto it = entries_.find(vd_id);
    return it == entries_.end() ? nullptr : &it->second;
  }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<std::uint64_t, SloSpec> entries_;
};

/// Fleet-wide admission/scheduling configuration (rides in `StackParams`,
/// so `ebs::ClusterParams` and `ScenarioSpec` carry it). Everything is off
/// by default: a dark cluster builds no admission state at all and stays
/// bit-identical to pre-qos builds.
struct QosParams {
  bool enabled = false;       ///< build per-node admission state
  bool early_reject = false;  ///< Mooncake-style prediction-based rejection
  /// Reject when predicted sojourn > target_p99 * headroom. >1 tolerates
  /// prediction noise; <1 sheds earlier.
  double headroom = 1.0;
  /// A rejection is not free (doorbell + completion): it comes back to the
  /// guest after this much simulated time, which also keeps closed-loop
  /// generators from spinning at one timestamp.
  TimeNs reject_latency = us(10);
  TimeNs predictor_window = ms(4);  ///< sliding-window span
  int predictor_buckets = 8;        ///< ring granularity within the window
  bool sched_enabled = false;       ///< WFQ at the DPU dispatch point
  int sched_weight_guaranteed = 8;
  int sched_weight_best_effort = 1;
};

// JSON field lists (a ScenarioSpec VD's "slo" object and the spec's "qos"
// object; see obs/fields.h).
template <class V>
void fields(V& v, SloSpec& s) {
  v.micros("target_p99_us", s.target_p99);
  v.field("guaranteed_iops", s.guaranteed_iops);
  v.field("class", s.cls, slo_class_from_string);
}

template <class V>
void fields(V& v, QosParams& p) {
  v.field("enabled", p.enabled);
  v.field("early_reject", p.early_reject);
  v.field("headroom", p.headroom);
  v.micros("reject_latency_us", p.reject_latency);
  v.micros("predictor_window_us", p.predictor_window);
  v.field("predictor_buckets", p.predictor_buckets);
  v.field("sched_enabled", p.sched_enabled);
  v.field("sched_weight_guaranteed", p.sched_weight_guaranteed);
  v.field("sched_weight_best_effort", p.sched_weight_best_effort);
}

}  // namespace repro::qos
