// Chaos harness: one (stack, seed, plan, workload) run under full oracle
// supervision.
//
// Lifecycle: build a small cluster with real payloads → closed-loop fio
// plus an open-loop Poisson stream per compute node, submits wrapped by
// that node's OracleBoard → warmup → arm the plan → active fault window →
// repair_all → drain to quiesce (bounded) → quiesce checks → per node, a
// durability read-back of a deterministic sample of its committed cells
// through its own VD. The same lifecycle runs on either engine
// (`ebs::Scenario` picks it from `shards`). The RunReport carries a
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
#include "qos/slo.h"

namespace repro::obs {
class Obs;
}

namespace repro::chaos {

struct HarnessConfig {
  ebs::StackKind stack = ebs::StackKind::kSolar;
  /// Per-node stack assignment for heterogeneous fleets (mid-rollout
  /// chaos); empty = homogeneous `stack`.
  std::vector<ebs::StackKind> compute_stacks;
  std::uint64_t seed = 1;
  FaultPlan plan;

  // Topology (kept small: fault coverage, not throughput, is the point).
  int compute_nodes = 2;
  int storage_nodes = 4;
  /// Rack width. 0 (default) derives a two-rack storage pod from
  /// `storage_nodes` — the same ⌈n/2⌉ the harness used to hardcode as 2
  /// for its 4-node default, but now one knob instead of two that could
  /// silently disagree (net::ClosConfig defaults to 8/rack on its own).
  int servers_per_rack = 0;

  // Workload: one open-loop Poisson stream per compute node (rate-bounded,
  // and open-loop arrivals keep probing a broken path the way guests do)
  // plus one capped closed-loop fio job for queue-depth backpressure.
  int iodepth = 4;
  int fio_max_ios = 400;
  double poisson_iops = 1500.0;  ///< per compute node
  std::uint32_t block_size = 8192;
  double read_fraction = 0.3;

  // Admission/scheduling layer under chaos: rejection storms must not
  // break exactly-once or recovery oracles (early-rejected I/Os complete
  // with kRejected, which the oracle counts as an error, not a loss).
  qos::QosParams qos;
  /// Erasure-coded fleet (`ec.enabled`): the run additionally audits EC
  /// durability — mid-run against the fault plan's live storage outages
  /// (any m concurrent fragment losses must stay recoverable; m+1 fires
  /// "ec_durability") and again at post-repair quiesce once the
  /// maintenance agents have drained.
  ec::EcParams ec;
  /// Cluster-level placement knobs; forwarded into the scenario so chaos
  /// runs exercise the same policies as every other harness.
  placement::PlacementParams placement;
  bool slo_all = false;  ///< attach `slo` to every VD the harness creates
  qos::SloSpec slo;
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

  /// Fabric partition: 1 = a single `sim::Engine`, > 1 = a ShardedEngine.
  /// Either way each compute node has its own (node-affine) oracle board.
  int shards = 1;
  /// Worker threads for the sharded run. Purely a speed knob: the report
  /// signature is a function of the config (including `shards`), never of
  /// `threads` — the determinism sweep asserts it.
  int threads = 1;

  /// Planted bug for fuzzer validation: SOLAR never declares a path dead,
  /// so silent failures pin I/O exactly like LUNA — the hang oracle must
  /// catch it.
  bool disable_solar_failover = false;

  /// Optional observability (trace export for repro bundles). Must not
  /// change the run — the determinism sweep asserts it.
  obs::Obs* obs = nullptr;

  /// The declarative scenario this config describes (topology, stacks,
  /// VDs, workload knobs); `run_chaos` builds the cluster from it.
  ebs::ScenarioSpec scenario() const;
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
