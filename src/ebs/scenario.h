// ScenarioSpec: one declarative description of an EBS experiment — topology,
// per-node stack assignment, virtual disks with optional QoS, workload knobs
// and the qos / EC / placement / sharding layers — that round-trips through
// JSON and builds through a single entry point.
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

  std::string to_json() const;
};

// JSON field lists (see obs/fields.h): each key is named once, in output
// order, and the same list writes, reads and strict-checks the spec. A
// value `build_scenario` cannot honour (no storage node, an empty rack,
// a fraction above 1) is refused here, naming its key.
inline constexpr const char* kAtLeastOne = "must be at least 1";
inline constexpr const char* kEcmpWidth = "must be in [1, 16]";
static_assert(net::kMaxEcmpWidth == 16, "kEcmpWidth names the ECMP cap");

template <class V>
void fields(V& v, VdSpec& vd) {
  v.field("size_bytes", vd.size_bytes);
  v.optional("qos", vd.qos, vd.has_qos);
  v.optional("slo", vd.slo, vd.has_slo);
}

template <class V>
void fields(V& v, WorkloadSpec& w) {
  v.field("block_size", w.block_size);
  v.field("iodepth", w.iodepth);
  v.check("iodepth", w.iodepth >= 1, kAtLeastOne);
  v.field("read_fraction", w.read_fraction);
  v.check("read_fraction", w.read_fraction >= 0.0 && w.read_fraction <= 1.0,
          "must be in [0, 1]");
  v.field("sequential", w.sequential);
  v.field("real_payload", w.real_payload);
  v.field("max_ios", w.max_ios);
  v.field("poisson_iops", w.poisson_iops);
  v.check("poisson_iops", w.poisson_iops >= 0.0, "must not be negative");
}

template <class V>
void fields(V& v, ScenarioSpec& s) {
  v.field("name", s.name);
  v.object("topology", [&s](V& t) {
    t.field("compute", s.compute_nodes);
    t.check("compute", s.compute_nodes >= 1, kAtLeastOne);
    t.field("storage", s.storage_nodes);
    t.check("storage", s.storage_nodes >= 1, kAtLeastOne);
    t.field("servers_per_rack", s.servers_per_rack);
    t.check("servers_per_rack", s.servers_per_rack >= 1, kAtLeastOne);
    // Each is the ECMP fan-out of some switch (ToR and core up to the
    // spines, spine up to the cores), which a switch caps per destination.
    t.field("spines_per_pod", s.spines_per_pod);
    t.check("spines_per_pod",
            s.spines_per_pod >= 1 && s.spines_per_pod <= net::kMaxEcmpWidth,
            kEcmpWidth);
    t.field("core_switches", s.core_switches);
    t.check("core_switches",
            s.core_switches >= 1 && s.core_switches <= net::kMaxEcmpWidth,
            kEcmpWidth);
    // Written only when sharded so single-engine specs round-trip unchanged.
    t.field_if(s.shards != 1, "shards", s.shards);
    t.check("shards", s.shards >= 1, kAtLeastOne);
    t.field_if(s.threads != 1, "threads", s.threads);
    t.check("threads", s.threads >= 1, kAtLeastOne);
  });
  v.field_if(s.vd_stripe_width != 0, "vd_stripe_width", s.vd_stripe_width);
  v.check("vd_stripe_width", s.vd_stripe_width >= 0, "must not be negative");
  v.field("stack", s.stack, stack_from_string);
  v.field_if(!s.compute_stacks.empty(), "compute_stacks", s.compute_stacks,
             stack_from_string);
  v.field("on_dpu", s.on_dpu);
  v.field("seed", s.seed);
  v.field("store_payload", s.store_payload);
  v.field("vd_size_bytes", s.vd_size_bytes);
  v.field_if(!s.vds.empty(), "vds", s.vds);
  v.field("workload", s.workload);
  // Written only when the subsystem is on, so specs that predate it
  // round-trip unchanged.
  v.field_if(s.qos.enabled, "qos", s.qos);
  v.field_if(s.ec.enabled, "ec", s.ec);
  v.field_if(s.placement.enabled, "placement", s.placement);
}

/// Parses a spec previously produced by `to_json` (or hand-written). Absent
/// fields keep their defaults. Unknown or duplicate keys, values of the
/// wrong JSON type, integers that are fractional or out of range for their
/// member, and unknown enum names are errors, never silent no-ops (a
/// typo'd knob must not quietly run the default). Returns false with
/// `*error` naming the key path (e.g. "scenario.ec.k").
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
