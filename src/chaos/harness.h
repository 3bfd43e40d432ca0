// Chaos harness: one (scenario, plan) run under full oracle supervision.
//
// Lifecycle: build a small cluster with real payloads → closed-loop fio
// plus an open-loop Poisson stream per compute node, submits wrapped by
// that node's OracleBoard → warmup → arm the plan → active fault window →
// repair_all → drain to quiesce (bounded) → quiesce checks → per node, a
// durability read-back of a deterministic sample of its committed cells
// through its own VD. The same lifecycle runs on either engine
// (`ebs::Scenario` picks it from `shards`). An erasure-coded spec
// (`ec.enabled`) adds the EC durability audit — mid-run against the plan's
// live storage outages (any m concurrent fragment losses must stay
// recoverable; m+1 fires "ec_durability") and again at post-repair quiesce.
// Under qos admission, early-rejected I/Os complete with kRejected, which
// the oracles count as errors, never as losses. The RunReport carries a
// determinism signature — two runs of the same config must match it
// bit-for-bit, faults and all.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/oracle.h"
#include "ebs/cluster.h"
#include "ebs/scenario.h"

namespace repro::obs {
class Obs;
}

namespace repro::chaos {

/// The harness's default run: a small real-payload SOLAR fleet (2 compute,
/// 4 storage in two racks, 1 GiB VDs — fault coverage, not throughput, is
/// the point) under one open-loop Poisson stream per compute node
/// (rate-bounded, and open-loop arrivals keep probing a broken path the way
/// guests do) plus one capped closed-loop fio job on node 0 for queue-depth
/// backpressure.
ebs::ScenarioSpec default_harness_spec();

struct HarnessConfig {
  /// What the run simulates: topology, stacks, seed, VDs (sizes, QoS, SLO
  /// contracts), workload knobs, and the qos / EC / placement / sharding
  /// layers. `run_chaos` honours every field or aborts, and needs
  /// `store_payload` and `workload.real_payload` (the durability oracle
  /// reads back acked bytes); a repro bundle is this spec's JSON plus the
  /// plan's.
  ebs::ScenarioSpec spec = default_harness_spec();
  FaultPlan plan;

  /// Capacity throttle for rejection-storm runs: saturating the default
  /// six-core DPU takes offered loads too big to simulate cheaply, so
  /// storms shrink the node instead (0 = stack default).
  int dpu_cpu_cores = 0;
  TimeNs solar_cpu_per_rpc = 0;

  // Phases.
  TimeNs warmup = ms(50);
  TimeNs active = seconds(1);     ///< window the plan plays out in
  TimeNs drain_slice = ms(100);
  TimeNs drain_limit = seconds(30);  ///< give up draining after this

  OracleConfig oracle;
  /// Committed cells read back per compute node, in (vd, lba) order.
  int readback_samples = 48;

  /// Planted bug for fuzzer validation: SOLAR never declares a path dead,
  /// so silent failures pin I/O exactly like LUNA — the hang oracle must
  /// catch it.
  bool disable_solar_failover = false;

  /// Optional observability (trace export for repro bundles). Must not
  /// change the run — the determinism sweep asserts it.
  obs::Obs* obs = nullptr;
};

struct RunReport {
  std::vector<Violation> violations;
  std::uint64_t ios_completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t hangs = 0;
  std::uint64_t crc_checks = 0;
  std::uint64_t faults_applied = 0;
  std::uint64_t faults_reverted = 0;
  // Determinism signature.
  std::uint64_t executed = 0;
  TimeNs end_time = 0;

  bool ok() const { return violations.empty(); }
  /// Compact fingerprint for bit-reproducibility comparisons.
  std::string signature() const;
};

/// Decide whether the hang oracle may be armed for `cfg`: SOLAR-family
/// stack and a plan within the hang-safe envelope (see GeneratorConfig).
bool hang_oracle_applicable(ebs::StackKind stack, const FaultPlan& plan);

RunReport run_chaos(const HarnessConfig& cfg);

}  // namespace repro::chaos
