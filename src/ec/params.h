// Fleet-wide erasure-coding knobs. Lives on stack::StackParams (and thus
// ebs::ClusterParams / ScenarioSpec) the same way the qos subsystem's
// params do: `enabled == false` means no EC object is ever built and the
// run is bit-identical to a spec that predates the field.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace repro::ec {

struct EcParams {
  bool enabled = false;
  /// Stripe geometry: k data + m parity fragments, placed on k+m distinct
  /// block servers. Degraded reads reconstruct from any k.
  int k = 4;
  int m = 2;
  /// Rebuild throttle in rebuilt bytes per simulated second (token bucket
  /// over the maintenance agent's reconstruct-writes). 0 = unthrottled —
  /// the `bench/ec_rebuild` trade-off knob.
  double rebuild_bandwidth_cap = 0.0;
  /// Fragment-health probing (maintenance agent): a probe read per tracked
  /// server every `probe_interval`; a server is declared dead after
  /// `probe_failures_to_dead` consecutive timeouts/errors.
  TimeNs probe_interval = ms(5);
  TimeNs probe_timeout = ms(15);
  int probe_failures_to_dead = 2;
  /// Concurrent reconstruct operations per maintenance agent.
  int rebuild_concurrency = 2;
  /// Backoff before retrying a failed row repair / reconstruct.
  TimeNs repair_retry = ms(10);

  /// Fragment cell: EC math runs per 4 KB block, the granularity every
  /// workload and the durability oracle already use. Fixed, not a knob.
  static constexpr std::uint32_t kCellBytes = 4096;
};

/// JSON field list (the ScenarioSpec "ec" object; see obs/fields.h).
template <class V>
void fields(V& v, EcParams& p) {
  v.field("enabled", p.enabled);
  v.field("k", p.k);
  v.field("m", p.m);
  v.field("rebuild_bandwidth_cap", p.rebuild_bandwidth_cap);
  v.micros("probe_interval_us", p.probe_interval);
  v.micros("probe_timeout_us", p.probe_timeout);
  v.field("probe_failures_to_dead", p.probe_failures_to_dead);
  v.field("rebuild_concurrency", p.rebuild_concurrency);
  v.micros("repair_retry_us", p.repair_retry);
  // k caps at 32: the client's write directory tracks data-fragment
  // coverage in a 32-bit mask (one bit per data fragment of a row).
  v.check(p.k >= 1 && p.k <= 32 && p.m >= 1 && p.k + p.m <= 128,
          "geometry needs 1 <= k <= 32, m >= 1 and k + m <= 128");
}

}  // namespace repro::ec
