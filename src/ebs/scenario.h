// ScenarioSpec: one declarative description of an EBS experiment — topology,
// per-node stack assignment, virtual disks with optional QoS, workload knobs
// and an optional chaos fault-plan reference — that round-trips through JSON
// and builds through a single entry point.
//
// Every harness (bench_util, the chaos harness, sim_fuzz, tests) derives its
// cluster from a spec, so "what did this run simulate" is one JSON blob, not
// a scatter of hard-coded parameter blocks.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ebs/cluster.h"
#include "ec/params.h"
#include "qos/slo.h"
#include "sa/qos_table.h"

namespace repro::ebs {

/// One virtual disk: size plus optional QoS and SLO contracts.
struct VdSpec {
  std::uint64_t size_bytes = 8ull << 30;
  bool has_qos = false;
  sa::QosSpec qos;
  bool has_slo = false;
  qos::SloSpec slo;
};

/// Workload knobs harnesses feed to fio / Poisson generators. The spec only
/// carries them; the harness decides which generator to run.
struct WorkloadSpec {
  std::uint32_t block_size = 4096;  ///< 0 = sample from the size mix
  int iodepth = 32;
  double read_fraction = 1.0;
  bool sequential = false;
  bool real_payload = false;
  std::uint64_t max_ios = 0;
  double poisson_iops = 0.0;  ///< 0 = closed-loop fio only
};

struct ScenarioSpec {
  std::string name = "scenario";
  // Topology (net::ClosConfig essentials).
  int compute_nodes = 2;
  int storage_nodes = 8;
  int servers_per_rack = 8;
  int spines_per_pod = 2;
  int core_switches = 2;
  /// Fabric partition for the sharded engine: racks map to `shards`
  /// contiguous node-affine shards. 1 = classic single-engine build.
  int shards = 1;
  /// Worker threads driving the shards (only meaningful with shards > 1).
  /// Results are bit-identical for any value; this is purely a speed knob.
  int threads = 1;
  /// Storage servers each VD stripes across (0 = all of them).
  int vd_stripe_width = 0;
  /// Homogeneous fleet stack; overridden per node by `compute_stacks`.
  StackKind stack = StackKind::kLuna;
  std::vector<StackKind> compute_stacks;
  bool on_dpu = false;
  std::uint64_t seed = 42;
  bool store_payload = false;
  /// Size of the default per-compute-node VD when `vds` is empty.
  std::uint64_t vd_size_bytes = 8ull << 30;
  /// Explicit VD list; empty = one `vd_size_bytes` VD per compute node.
  std::vector<VdSpec> vds;
  WorkloadSpec workload;
  /// Fleet-wide admission/scheduling knobs (qos subsystem). Disabled by
  /// default: the admission layer is then never built and the run is
  /// bit-identical to a spec that predates the field.
  qos::QosParams qos;
  /// Erasure-coding knobs (src/ec). Disabled by default: the fleet then
  /// runs 3-replica like every spec that predates the field.
  ec::EcParams ec;
  /// Cluster-level placement knobs (src/placement). Disabled by default:
  /// no policy is built and layouts are bit-identical to pre-field specs.
  placement::PlacementParams placement;
  /// Optional path to a chaos::FaultPlan JSON to inject during the run.
  std::string fault_plan_file;

  std::string to_json() const;
};

/// Parses a spec previously produced by `to_json` (or hand-written). Absent
/// fields keep their defaults; unrecognized fields are an error, not a
/// silent no-op (a typo'd knob must not quietly run the default). Returns
/// false with `*error` set on malformed input or unknown stack names.
bool scenario_from_json(const std::string& text, ScenarioSpec* out,
                        std::string* error);

/// The ClusterParams a spec describes. Field-for-field identical to what the
/// harnesses used to build by hand, so existing experiments are unchanged.
ClusterParams params_from(const ScenarioSpec& spec);

/// A built scenario: engine + cluster + the VDs the spec declared (with QoS
/// applied), ready for a workload. Specs with `shards > 1` build on a
/// `ShardedEngine` instead (`engine` stays null, `sharded` is set). The
/// driving methods below hide that choice, so callers never branch on it.
struct Scenario {
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<sim::ShardedEngine> sharded;
  std::unique_ptr<Cluster> cluster;
  std::vector<std::uint64_t> vds;

  void run_until(TimeNs t);
  void run();
  TimeNs now() const;  ///< global time (the barrier time when sharded)
  std::uint64_t executed() const;
  std::size_t pending() const;
};

/// Builds the engine, cluster and VDs a spec describes. `obs` optional
/// (null = dark); when set it is attached to the engine before the VDs are
/// created.
Scenario build_scenario(const ScenarioSpec& spec, obs::Obs* obs = nullptr);

/// As above, but from `params` (carrying `obs`) instead of
/// `params_from(spec)`, for callers that adjust knobs a spec does not carry.
Scenario build_scenario(const ScenarioSpec& spec, ClusterParams params);

}  // namespace repro::ebs
