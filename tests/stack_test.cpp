// The src/stack layer: StackKind naming round-trips, ScenarioSpec JSON
// round-trips, and — the contract the whole refactor exists for —
// heterogeneous fleets (different generations sharing one fabric) that are
// bit-deterministic end-to-end, instrumented or dark, faults and all.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"
#include "ebs/cluster.h"
#include "ebs/scenario.h"
#include "obs/obs.h"
#include "sim/engine.h"
#include "stack/kind.h"
#include "workload/fio.h"

namespace repro::ebs {
namespace {

using transport::IoRequest;

const StackKind kAllKinds[] = {
    StackKind::kKernelTcp, StackKind::kLuna, StackKind::kRdma,
    StackKind::kSolarStar, StackKind::kSolar,
};

TEST(StackKind, DisplayNamesRoundTrip) {
  for (StackKind kind : kAllKinds) {
    StackKind parsed;
    ASSERT_TRUE(stack_from_string(to_string(kind), &parsed)) << to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
}

TEST(StackKind, CliNamesRoundTrip) {
  for (StackKind kind : kAllKinds) {
    StackKind parsed;
    ASSERT_TRUE(stack_from_string(stack::cli_string(kind), &parsed))
        << stack::cli_string(kind);
    EXPECT_EQ(parsed, kind);
  }
}

TEST(StackKind, UnknownNameFailsAndLeavesOutputUntouched) {
  StackKind parsed = StackKind::kRdma;
  EXPECT_FALSE(stack_from_string("lunar", &parsed));
  EXPECT_FALSE(stack_from_string("", &parsed));
  EXPECT_FALSE(stack_from_string("SOLAR", &parsed));
  EXPECT_EQ(parsed, StackKind::kRdma);
}

TEST(StackKind, FamilyPredicates) {
  EXPECT_TRUE(stack::solar_family(StackKind::kSolarStar));
  EXPECT_TRUE(stack::solar_family(StackKind::kSolar));
  EXPECT_FALSE(stack::solar_family(StackKind::kLuna));
  // Only the offloaded generation runs payloads through the FPGA.
  EXPECT_TRUE(stack::has_fpga_datapath(StackKind::kSolar));
  EXPECT_FALSE(stack::has_fpga_datapath(StackKind::kSolarStar));
  // The demux ports of the three server families must be distinct.
  EXPECT_NE(stack::server_port(stack::ServerFamily::kTcp),
            stack::server_port(stack::ServerFamily::kRdma));
  EXPECT_NE(stack::server_port(stack::ServerFamily::kTcp),
            stack::server_port(stack::ServerFamily::kSolar));
  EXPECT_NE(stack::server_port(stack::ServerFamily::kRdma),
            stack::server_port(stack::ServerFamily::kSolar));
}

ScenarioSpec full_spec() {
  ScenarioSpec spec;
  spec.name = "roundtrip";
  spec.compute_nodes = 3;
  spec.storage_nodes = 6;
  spec.servers_per_rack = 3;
  spec.spines_per_pod = 4;
  spec.core_switches = 3;
  spec.stack = StackKind::kSolarStar;
  spec.compute_stacks = {StackKind::kLuna, StackKind::kSolar,
                         StackKind::kKernelTcp};
  spec.on_dpu = true;
  spec.seed = 777;
  spec.store_payload = true;
  spec.vd_size_bytes = 2ull << 30;
  VdSpec vd;
  vd.size_bytes = 1ull << 30;
  spec.vds.push_back(vd);
  vd.has_qos = true;
  vd.qos.iops_limit = 5000;
  vd.qos.bandwidth_limit = 125e6;
  vd.qos.burst_ios = 64;
  vd.qos.burst_bytes = 1ull << 20;
  spec.vds.push_back(vd);
  spec.workload.block_size = 0;
  spec.workload.iodepth = 7;
  spec.workload.read_fraction = 0.25;
  spec.workload.sequential = true;
  spec.workload.real_payload = true;
  spec.workload.max_ios = 123;
  spec.workload.poisson_iops = 450.0;
  spec.ec.enabled = true;
  spec.ec.k = 4;
  spec.ec.m = 2;
  spec.ec.rebuild_bandwidth_cap = 64e6;
  spec.ec.rebuild_concurrency = 3;
  return spec;
}

TEST(ScenarioSpec, JsonRoundTripPreservesEveryField) {
  const ScenarioSpec spec = full_spec();
  ScenarioSpec back;
  std::string err;
  ASSERT_TRUE(scenario_from_json(spec.to_json(), &back, &err)) << err;
  // The sharpest equality we have: serialize both and compare bytes.
  EXPECT_EQ(spec.to_json(), back.to_json());
  EXPECT_EQ(back.compute_stacks,
            (std::vector<StackKind>{StackKind::kLuna, StackKind::kSolar,
                                    StackKind::kKernelTcp}));
  ASSERT_EQ(back.vds.size(), 2u);
  EXPECT_FALSE(back.vds[0].has_qos);
  ASSERT_TRUE(back.vds[1].has_qos);
  EXPECT_EQ(back.vds[1].qos.iops_limit, 5000);
}

TEST(ScenarioSpec, DefaultsSurviveRoundTrip) {
  ScenarioSpec spec;  // all defaults; optional arrays omitted from JSON
  ScenarioSpec back;
  std::string err;
  ASSERT_TRUE(scenario_from_json(spec.to_json(), &back, &err)) << err;
  EXPECT_EQ(spec.to_json(), back.to_json());
  EXPECT_TRUE(back.compute_stacks.empty());
  EXPECT_TRUE(back.vds.empty());
}

TEST(ScenarioSpec, RejectsUnknownStackAndMalformedInput) {
  ScenarioSpec out;
  std::string err;
  EXPECT_FALSE(scenario_from_json(R"({"stack":"lunar"})", &out, &err));
  EXPECT_NE(err.find("lunar"), std::string::npos);
  EXPECT_FALSE(scenario_from_json(R"({"compute_stacks":"luna"})", &out, &err));
  EXPECT_FALSE(scenario_from_json("[1,2]", &out, &err));
  EXPECT_FALSE(scenario_from_json("{", &out, &err));
}

// Strict parsing: an unrecognized field anywhere in the document is an
// error, not a silent no-op — a typo'd knob must never quietly run the
// default config.
TEST(ScenarioSpec, RejectsUnrecognizedFieldsAtEveryLevel) {
  ScenarioSpec out;
  std::string err;
  // Root level.
  EXPECT_FALSE(scenario_from_json(R"({"sede":7})", &out, &err));
  EXPECT_NE(err.find("sede"), std::string::npos) << err;
  // Nested objects.
  EXPECT_FALSE(
      scenario_from_json(R"({"topology":{"comput":2}})", &out, &err));
  EXPECT_NE(err.find("comput"), std::string::npos) << err;
  EXPECT_FALSE(
      scenario_from_json(R"({"workload":{"blocksize":512}})", &out, &err));
  EXPECT_FALSE(scenario_from_json(
      R"({"vds":[{"size_bytes":1048576,"sloo":{}}]})", &out, &err));
  EXPECT_FALSE(scenario_from_json(
      R"({"vds":[{"size_bytes":1048576,"qos":{"iops":100}}]})", &out, &err));
  EXPECT_FALSE(
      scenario_from_json(R"({"qos":{"enable":true}})", &out, &err));
}

// A spec names no fault plan: chaos runs carry their plan beside the spec
// (sim_fuzz repro bundles are one file each), so the key that used to be
// parsed and then ignored is now an unknown key.
TEST(ScenarioSpec, RejectsRemovedFaultPlanFileKey) {
  ScenarioSpec out;
  std::string err;
  EXPECT_FALSE(scenario_from_json(R"({"fault_plan_file":"x"})", &out, &err));
  EXPECT_NE(err.find("fault_plan_file"), std::string::npos) << err;
}

// Seeds and byte counts are read from their JSON text, not through a
// double: a repro spec of a run seeded above 2^53 must replay that seed.
TEST(ScenarioSpec, IntegerFieldsAbove2To53RoundTripExactly) {
  ScenarioSpec spec;
  spec.seed = (1ull << 53) + 1;
  spec.vd_size_bytes = (1ull << 60) + 1;
  spec.workload.max_ios = ~0ull;
  VdSpec vd;
  vd.size_bytes = (1ull << 55) + 3;
  spec.vds.push_back(vd);
  ScenarioSpec back;
  std::string err;
  ASSERT_TRUE(scenario_from_json(spec.to_json(), &back, &err)) << err;
  EXPECT_EQ(back.seed, (1ull << 53) + 1);
  EXPECT_EQ(back.vd_size_bytes, (1ull << 60) + 1);
  EXPECT_EQ(back.workload.max_ios, ~0ull);
  ASSERT_EQ(back.vds.size(), 1u);
  EXPECT_EQ(back.vds[0].size_bytes, (1ull << 55) + 3);

  // Anything but a plain non-negative integer is refused, naming the key.
  for (const char* bad : {R"({"seed":1.5})", R"({"seed":-1})",
                          R"({"seed":1e3})", R"({"seed":18446744073709551616})",
                          R"({"workload":{"max_ios":2.0}})",
                          R"({"vds":[{"size_bytes":-4096}]})"}) {
    ScenarioSpec out;
    err.clear();
    EXPECT_FALSE(scenario_from_json(bad, &out, &err)) << bad;
    EXPECT_NE(err.find("must be a non-negative integer"), std::string::npos)
        << bad << ": " << err;
  }
}

// A value of the wrong JSON type is refused, never dropped, truncated or
// wrapped: each of these used to parse and run something else (a 3-replica
// fleet, an off-DPU run, qos off, k = 4, 2 compute nodes, a 4 GiB block
// size, the last of two seeds).
TEST(ScenarioSpec, RefusesIllTypedValuesNamingTheKeyPath) {
  struct Case {
    const char* json;
    const char* path;
  };
  const Case cases[] = {
      {R"({"ec":{"enabled":"true","k":4,"m":2}})", "scenario.ec.enabled"},
      {R"({"on_dpu":1})", "scenario.on_dpu"},
      {R"({"qos":{"enabled":1}})", "scenario.qos.enabled"},
      {R"({"ec":{"enabled":true,"k":4.7,"m":2}})", "scenario.ec.k"},
      {R"({"topology":{"compute":"4"}})", "scenario.topology.compute"},
      {R"({"workload":{"block_size":-4096}})", "scenario.workload.block_size"},
      {R"({"seed":1,"seed":2})", "scenario.seed"},
  };
  for (const Case& c : cases) {
    ScenarioSpec out;
    std::string err;
    EXPECT_FALSE(scenario_from_json(c.json, &out, &err)) << c.json;
    EXPECT_NE(err.find(c.path), std::string::npos) << c.json << ": " << err;
  }
}

// A well-typed value `build_scenario` cannot honour is refused at parse time,
// naming its key: before the range checks these crashed the build (no
// storage node: a segfault; an empty rack: a division by zero) or ran
// nothing and exited 0.
TEST(ScenarioSpec, RefusesOutOfRangeValuesNamingTheKeyPath) {
  struct Case {
    const char* json;
    const char* path;
  };
  const Case cases[] = {
      {R"({"topology":{"storage":0}})", "scenario.topology.storage"},
      {R"({"topology":{"servers_per_rack":0}})",
       "scenario.topology.servers_per_rack"},
      {R"({"topology":{"compute":-1}})", "scenario.topology.compute"},
      {R"({"topology":{"spines_per_pod":0}})",
       "scenario.topology.spines_per_pod"},
      {R"({"topology":{"core_switches":0}})",
       "scenario.topology.core_switches"},
      // Wider than a switch's ECMP set: routes would narrow silently.
      {R"({"topology":{"spines_per_pod":17}})",
       "scenario.topology.spines_per_pod"},
      {R"({"topology":{"core_switches":17}})",
       "scenario.topology.core_switches"},
      {R"({"topology":{"shards":0}})", "scenario.topology.shards"},
      {R"({"topology":{"threads":0}})", "scenario.topology.threads"},
      {R"({"vd_stripe_width":-1})", "scenario.vd_stripe_width"},
      {R"({"workload":{"iodepth":0}})", "scenario.workload.iodepth"},
      {R"({"workload":{"read_fraction":1.5}})",
       "scenario.workload.read_fraction"},
      {R"({"workload":{"read_fraction":-0.1}})",
       "scenario.workload.read_fraction"},
      {R"({"workload":{"poisson_iops":-1}})",
       "scenario.workload.poisson_iops"},
  };
  for (const Case& c : cases) {
    ScenarioSpec out;
    std::string err;
    EXPECT_FALSE(scenario_from_json(c.json, &out, &err)) << c.json;
    EXPECT_NE(err.find(c.path), std::string::npos) << c.json << ": " << err;
  }
  // The edges of each range still parse.
  ScenarioSpec out;
  std::string err;
  EXPECT_TRUE(scenario_from_json(
      R"({"topology":{"compute":1,"storage":1,"servers_per_rack":1},)"
      R"("vd_stripe_width":0,)"
      R"("workload":{"iodepth":1,"read_fraction":0,"poisson_iops":0}})",
      &out, &err))
      << err;
  EXPECT_TRUE(scenario_from_json(R"({"workload":{"read_fraction":1}})", &out,
                                 &err))
      << err;
  EXPECT_TRUE(scenario_from_json(
      R"({"topology":{"spines_per_pod":16,"core_switches":16}})", &out, &err))
      << err;
}

TEST(ScenarioSpec, EcKnobsParseStrictly) {
  ScenarioSpec out;
  std::string err;
  // The classic typo: must be rejected, not ignored.
  EXPECT_FALSE(scenario_from_json(
      R"({"ec":{"enabled":true,"k":4,"m":2,"rebuild_bandwith_cap":1.0}})",
      &out, &err));
  EXPECT_NE(err.find("rebuild_bandwith_cap"), std::string::npos) << err;
  // Bad geometry is a parse error too.
  EXPECT_FALSE(scenario_from_json(R"({"ec":{"enabled":true,"k":0,"m":2}})",
                                  &out, &err));
  // A well-formed EC block lands on the spec.
  ASSERT_TRUE(scenario_from_json(
      R"({"ec":{"enabled":true,"k":8,"m":3,"rebuild_concurrency":5}})", &out,
      &err))
      << err;
  EXPECT_TRUE(out.ec.enabled);
  EXPECT_EQ(out.ec.k, 8);
  EXPECT_EQ(out.ec.m, 3);
  EXPECT_EQ(out.ec.rebuild_concurrency, 5);
}

TEST(ScenarioSpec, ParamsAssignStacksPerNode) {
  ScenarioSpec spec;
  spec.compute_nodes = 4;
  spec.stack = StackKind::kKernelTcp;
  spec.compute_stacks = {StackKind::kLuna, StackKind::kSolar};
  const ClusterParams p = params_from(spec);
  // Shorter-than-fleet assignments repeat cyclically.
  EXPECT_EQ(p.stack_for(0), StackKind::kLuna);
  EXPECT_EQ(p.stack_for(1), StackKind::kSolar);
  EXPECT_EQ(p.stack_for(2), StackKind::kLuna);
  EXPECT_EQ(p.stack_for(3), StackKind::kSolar);
}

// ---------------------------------------------------------------------------
// Heterogeneous end-to-end determinism.

struct HeteroSig {
  std::uint64_t executed = 0;
  TimeNs end_time = 0;
  std::vector<std::uint64_t> done;
  std::vector<double> lat_mean;

  bool operator==(const HeteroSig&) const = default;
};

/// A LUNA node and a SOLAR node driving the same storage fleet at once —
/// one heterogeneous cluster, not two clusters sharing an engine.
HeteroSig run_hetero(std::uint64_t seed, obs::Obs* obs = nullptr) {
  ScenarioSpec spec;
  spec.name = "hetero";
  spec.compute_nodes = 2;
  spec.storage_nodes = 4;
  spec.servers_per_rack = 4;
  spec.compute_stacks = {StackKind::kLuna, StackKind::kSolar};
  spec.seed = seed;
  spec.vd_size_bytes = 1ull << 30;
  Scenario s = build_scenario(spec, obs);
  auto& eng = *s.engine;
  EXPECT_EQ(s.cluster->compute(0).stack_kind(), StackKind::kLuna);
  EXPECT_EQ(s.cluster->compute(1).stack_kind(), StackKind::kSolar);

  std::vector<std::unique_ptr<workload::FioJob>> jobs;
  for (int i = 0; i < 2; ++i) {
    workload::FioConfig cfg;
    cfg.vd_id = s.vds[static_cast<std::size_t>(i)];
    cfg.vd_size = spec.vd_size_bytes;
    cfg.iodepth = 4;
    cfg.read_fraction = 0.5;
    cfg.max_ios = 250;
    auto& cluster = *s.cluster;
    jobs.push_back(std::make_unique<workload::FioJob>(
        eng,
        [&cluster, i](IoRequest io, transport::IoCompleteFn done) {
          cluster.compute(i).submit_io(std::move(io), std::move(done));
        },
        cfg, Rng(seed + static_cast<std::uint64_t>(i))));
  }
  eng.at(0, [&] {
    for (auto& j : jobs) j->start();
  });
  eng.run();

  HeteroSig sig;
  sig.executed = eng.executed();
  sig.end_time = eng.now();
  for (auto& j : jobs) {
    sig.done.push_back(j->completed());
    sig.lat_mean.push_back(j->metrics().total().mean());
  }
  return sig;
}

TEST(HeterogeneousCluster, MixedLunaSolarIsBitIdenticalAcrossRuns) {
  const HeteroSig a = run_hetero(99);
  const HeteroSig b = run_hetero(99);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.done.size(), 2u);
  EXPECT_EQ(a.done[0], 250u);  // both nodes actually finished their I/O
  EXPECT_EQ(a.done[1], 250u);
  // And the two generations genuinely behave differently on one fabric.
  EXPECT_NE(a.lat_mean[0], a.lat_mean[1]);
}

TEST(HeterogeneousCluster, ObservabilityOnVsOffIsBitIdentical) {
  const HeteroSig dark = run_hetero(99);
  obs::ObsConfig oc;
  oc.sample_interval = us(20);
  obs::Obs obs(oc);
  const HeteroSig lit = run_hetero(99, &obs);
  EXPECT_EQ(dark, lit);
  EXPECT_GT(obs.sampler().samples_taken(), 0u);
}

// Chaos against a heterogeneous fleet, with faults addressed to a *single*
// node's stack: a CPU stall on the LUNA node and a PCIe degrade on the
// SOLAR node's DPU. Two runs must match signatures, and both faults must
// actually land (the injector resolves them through the stack interface).
TEST(HeterogeneousCluster, ChaosOnSingleNodeStackIsDeterministic) {
  chaos::HarnessConfig cfg;
  cfg.spec.stack = StackKind::kLuna;
  cfg.spec.compute_stacks = {StackKind::kLuna, StackKind::kSolar};
  cfg.spec.seed = 31337;
  cfg.active = ms(300);
  cfg.spec.workload.poisson_iops = 900.0;
  cfg.readback_samples = 8;

  chaos::FaultEvent stall;
  stall.at = ms(20);
  stall.duration = ms(60);
  stall.kind = chaos::FaultKind::kCpuStall;
  stall.target = {chaos::TargetKind::kComputeCpu, /*index=*/0, /*sub=*/-1};
  cfg.plan.events.push_back(stall);

  chaos::FaultEvent pcie;
  pcie.at = ms(40);
  pcie.duration = ms(120);
  pcie.kind = chaos::FaultKind::kPcieDegrade;
  pcie.target = {chaos::TargetKind::kComputePcie, /*index=*/1, /*sub=*/-1};
  pcie.magnitude = 0.25;
  cfg.plan.events.push_back(pcie);

  const chaos::RunReport a = chaos::run_chaos(cfg);
  const chaos::RunReport b = chaos::run_chaos(cfg);
  EXPECT_EQ(a.signature(), b.signature());
  EXPECT_EQ(a.faults_applied, 2u);
  EXPECT_EQ(a.faults_reverted, 2u);
  EXPECT_GT(a.ios_completed, 0u);
  EXPECT_TRUE(a.ok()) << a.violations.size() << " violations";
}

}  // namespace
}  // namespace repro::ebs
