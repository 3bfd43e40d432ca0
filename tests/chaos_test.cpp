// Unit + integration coverage of the chaos subsystem: FaultPlan DSL JSON
// round-trip, seeded generator determinism, kind-specific injector
// apply/revert semantics, greedy plan minimization, and whole-harness runs
// (clean run, bit-reproducibility, planted-bug detection — the acceptance
// demo that a disabled SOLAR failover yields a deterministic, minimizable
// oracle violation).
#include <gtest/gtest.h>

#include <string>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"
#include "chaos/injector.h"
#include "chaos/minimize.h"
#include "ebs/cluster.h"
#include "sim/engine.h"

namespace repro::chaos {
namespace {

FaultPlan sample_plan() {
  FaultPlan plan;
  plan.name = "sample";
  FaultEvent silent;
  silent.at = ms(1);
  silent.duration = ms(5);
  silent.kind = FaultKind::kDeviceSilent;
  silent.target = {TargetKind::kStorageTor, 0, -1};
  plan.events.push_back(silent);
  FaultEvent loss;
  loss.at = ms(2);
  loss.duration = ms(10);
  loss.kind = FaultKind::kLoss;
  loss.target = {TargetKind::kCore, 1, -1};
  loss.magnitude = 0.25;
  plan.events.push_back(loss);
  FaultEvent reorder;
  reorder.at = ms(3);
  reorder.duration = 0;  // held until repair_all
  reorder.kind = FaultKind::kReorder;
  reorder.target = {TargetKind::kStorageSpine, 0, -1};
  reorder.magnitude = 0.1;
  reorder.param = us(120);
  plan.events.push_back(reorder);
  return plan;
}

TEST(FaultPlanDsl, JsonRoundTripPreservesEveryField) {
  FaultPlan plan;
  plan.name = "round-trip";
  // One event of every kind, cycling target kinds.
  const FaultKind kinds[] = {
      FaultKind::kLinkFail,       FaultKind::kDeviceStop,
      FaultKind::kDeviceSilent,   FaultKind::kBlackhole,
      FaultKind::kLoss,           FaultKind::kCorrupt,
      FaultKind::kDuplicate,      FaultKind::kReorder,
      FaultKind::kSsdLatency,     FaultKind::kSsdStall,
      FaultKind::kCpuStall,       FaultKind::kPcieDegrade,
      FaultKind::kFpgaPreCrcFlip, FaultKind::kFpgaPostCrcFlip,
      FaultKind::kFpgaCrcEngine,
  };
  const TargetKind targets[] = {
      TargetKind::kComputeNic,  TargetKind::kStorageNic,
      TargetKind::kComputeTor,  TargetKind::kStorageTor,
      TargetKind::kComputeSpine, TargetKind::kStorageSpine,
      TargetKind::kCore,        TargetKind::kStorageSsd,
      TargetKind::kComputeCpu,  TargetKind::kStorageCpu,
      TargetKind::kComputePcie, TargetKind::kComputeFpga,
  };
  int i = 0;
  for (FaultKind k : kinds) {
    FaultEvent e;
    e.at = ms(i);
    e.duration = ms(10 + i);
    e.kind = k;
    e.target.kind = targets[i % 12];
    e.target.index = i;
    e.target.sub = i % 3 - 1;
    e.magnitude = 0.125 * i;
    e.param = us(i * 7);
    plan.events.push_back(e);
    ++i;
  }

  const std::string json = plan.to_json();
  FaultPlan back;
  std::string err;
  ASSERT_TRUE(plan_from_json(json, &back, &err)) << err;
  EXPECT_EQ(back.name, plan.name);
  ASSERT_EQ(back.events.size(), plan.events.size());
  for (std::size_t j = 0; j < plan.events.size(); ++j) {
    const FaultEvent& a = plan.events[j];
    const FaultEvent& b = back.events[j];
    EXPECT_EQ(a.at, b.at) << j;
    EXPECT_EQ(a.duration, b.duration) << j;
    EXPECT_EQ(a.kind, b.kind) << j;
    EXPECT_EQ(a.target.kind, b.target.kind) << j;
    EXPECT_EQ(a.target.index, b.target.index) << j;
    EXPECT_EQ(a.target.sub, b.target.sub) << j;
    EXPECT_DOUBLE_EQ(a.magnitude, b.magnitude) << j;
    EXPECT_EQ(a.param, b.param) << j;
  }
}

TEST(FaultPlanDsl, ParserRejectsMalformedInput) {
  FaultPlan out;
  EXPECT_FALSE(plan_from_json("", &out));
  EXPECT_FALSE(plan_from_json("{", &out));
  EXPECT_FALSE(plan_from_json("[]", &out));
  EXPECT_FALSE(plan_from_json("{\"name\":\"x\"}", &out));  // no events
  EXPECT_FALSE(plan_from_json(
      R"({"name":"x","events":[{"at_ns":0,"kind":"no_such_kind",
          "target":{"kind":"core","index":0}}]})",
      &out));
  // Trailing garbage after a valid document.
  EXPECT_FALSE(plan_from_json("{\"name\":\"x\",\"events\":[]} trailing", &out));
  // Minimal valid plan.
  EXPECT_TRUE(plan_from_json("{\"name\":\"x\",\"events\":[]}", &out));
  EXPECT_TRUE(out.events.empty());
}

// A misspelled key or a value of the wrong JSON type is refused, never
// read as a default or truncated: each of these used to parse (duration 0,
// index 0, onset 1000 ns).
TEST(FaultPlanDsl, RefusesIllTypedValuesNamingTheKeyPath) {
  struct Case {
    const char* event;
    const char* path;
  };
  const Case cases[] = {
      {R"("at_ns":0,"drution_ns":5000000,"kind":"loss",
          "target":{"kind":"core","index":0})",
       "plan.events[0].drution_ns"},
      {R"("at_ns":0,"kind":"loss","target":{"kind":"core","index":"3"})",
       "plan.events[0].target.index"},
      {R"("at_ns":1000.7,"kind":"loss","target":{"kind":"core","index":0})",
       "plan.events[0].at_ns"},
      {R"("at_ns":0,"at_ns":5,"kind":"loss","target":{"kind":"core"})",
       "plan.events[0].at_ns"},
  };
  for (const Case& c : cases) {
    const std::string json =
        std::string(R"({"name":"x","events":[{)") + c.event + "}]}";
    FaultPlan out;
    std::string err;
    EXPECT_FALSE(plan_from_json(json, &out, &err)) << json;
    EXPECT_NE(err.find(c.path), std::string::npos) << json << ": " << err;
  }
}

TopologyShape test_shape() {
  TopologyShape s;
  s.compute_nodes = 2;
  s.storage_nodes = 4;
  s.compute_tors = 2;
  s.storage_tors = 4;
  s.compute_spines = 2;
  s.storage_spines = 2;
  s.cores = 2;
  s.replica_ssds = 3;
  s.has_fpga = true;
  return s;
}

TEST(Generator, IsDeterministicPerSeed) {
  GeneratorConfig cfg;
  const TopologyShape shape = test_shape();
  Rng a(77), b(77), c(78);
  const FaultPlan pa = generate_plan(a, cfg, shape);
  const FaultPlan pb = generate_plan(b, cfg, shape);
  const FaultPlan pc = generate_plan(c, cfg, shape);
  EXPECT_EQ(pa.to_json(), pb.to_json());
  EXPECT_NE(pa.to_json(), pc.to_json());
}

TEST(Generator, HangSafePlansKeepMisbehaviourOffNics) {
  GeneratorConfig cfg;
  cfg.hang_safe = true;
  cfg.min_events = 3;
  cfg.max_events = 6;
  const TopologyShape shape = test_shape();
  Rng rng(5);
  for (int round = 0; round < 50; ++round) {
    const FaultPlan plan = generate_plan(rng, cfg, shape);
    for (const FaultEvent& e : plan.events) {
      switch (e.kind) {
        case FaultKind::kDeviceSilent:
        case FaultKind::kDeviceStop:
        case FaultKind::kBlackhole:
        case FaultKind::kLoss:
        case FaultKind::kCorrupt:
        case FaultKind::kDuplicate:
        case FaultKind::kReorder:
          EXPECT_NE(e.target.kind, TargetKind::kComputeNic);
          EXPECT_NE(e.target.kind, TargetKind::kStorageNic);
          break;
        case FaultKind::kLinkFail:
          EXPECT_EQ(e.target.sub, 0);
          break;
        case FaultKind::kSsdStall:
        case FaultKind::kCpuStall:
        case FaultKind::kSsdLatency:
          EXPECT_LE(e.duration, ms(300));
          break;
        default:
          break;
      }
    }
  }
}

TEST(HangOracle, ApplicabilityRules) {
  FaultPlan one_silent;
  FaultEvent e;
  e.kind = FaultKind::kDeviceSilent;
  e.target = {TargetKind::kStorageTor, 0, -1};
  e.duration = ms(500);
  one_silent.events.push_back(e);
  EXPECT_TRUE(hang_oracle_applicable(ebs::StackKind::kSolar, one_silent));
  EXPECT_TRUE(hang_oracle_applicable(ebs::StackKind::kSolarStar, one_silent));
  // Never for the software stacks: hangs are their Table 2 signal.
  EXPECT_FALSE(hang_oracle_applicable(ebs::StackKind::kLuna, one_silent));
  EXPECT_FALSE(hang_oracle_applicable(ebs::StackKind::kKernelTcp, one_silent));

  // Two tier-killing faults could cover a whole ECMP tier: not safe.
  FaultPlan two_silent = one_silent;
  two_silent.events.push_back(e);
  EXPECT_FALSE(hang_oracle_applicable(ebs::StackKind::kSolar, two_silent));

  // Loss on a NIC has no path diversity to dodge through: not safe.
  FaultPlan nic_loss;
  FaultEvent l;
  l.kind = FaultKind::kLoss;
  l.target = {TargetKind::kStorageNic, 0, -1};
  l.magnitude = 0.3;
  nic_loss.events.push_back(l);
  EXPECT_FALSE(hang_oracle_applicable(ebs::StackKind::kSolar, nic_loss));
}

TEST(Injector, AppliesAndRevertsKindSpecifically) {
  sim::Engine eng;
  ebs::ClusterParams params;
  params.topo.compute_servers = 2;
  params.topo.storage_servers = 4;
  params.topo.servers_per_rack = 2;
  params.stack = ebs::StackKind::kSolar;
  params.seed = 9;
  ebs::Cluster cluster(eng, params);
  Injector inj(cluster);

  const TopologyShape shape = inj.shape();
  EXPECT_EQ(shape.compute_nodes, 2);
  EXPECT_EQ(shape.storage_nodes, 4);
  EXPECT_GT(shape.storage_tors, 0);
  EXPECT_TRUE(shape.has_fpga);

  // Silent (5 ms) and blackhole (12 ms) composed on the same ToR: the
  // silent repair must not clear the still-running blackhole.
  FaultPlan plan;
  FaultEvent silent;
  silent.at = ms(1);
  silent.duration = ms(5);
  silent.kind = FaultKind::kDeviceSilent;
  silent.target = {TargetKind::kStorageTor, 0, -1};
  plan.events.push_back(silent);
  FaultEvent bh;
  bh.at = ms(1);
  bh.duration = ms(12);
  bh.kind = FaultKind::kBlackhole;
  bh.target = {TargetKind::kStorageTor, 0, -1};
  bh.magnitude = 0.5;
  plan.events.push_back(bh);
  // SSD stall held until repair_all.
  FaultEvent stall;
  stall.at = ms(2);
  stall.duration = 0;
  stall.kind = FaultKind::kSsdStall;
  stall.target = {TargetKind::kStorageSsd, 1, -1};
  plan.events.push_back(stall);

  inj.arm(plan);
  const net::Device& tor = *cluster.clos().storage_tors[0];
  auto& ssd = cluster.storage(1).block_server().replica_ssd(0);

  eng.run_until(ms(3));
  EXPECT_TRUE(tor.faults().silent_dead);
  EXPECT_DOUBLE_EQ(tor.faults().blackhole_fraction, 0.5);
  EXPECT_TRUE(ssd.stalled());

  eng.run_until(ms(8));
  EXPECT_FALSE(tor.faults().silent_dead);          // silent reverted
  EXPECT_DOUBLE_EQ(tor.faults().blackhole_fraction, 0.5);  // still on

  eng.run_until(ms(14));
  EXPECT_DOUBLE_EQ(tor.faults().blackhole_fraction, 0.0);
  EXPECT_TRUE(ssd.stalled());  // duration 0 = held

  inj.repair_all();
  EXPECT_FALSE(ssd.stalled());
  EXPECT_EQ(inj.last_repair_time(), eng.now());
  EXPECT_EQ(inj.applied(), 3);
  EXPECT_EQ(inj.reverted(), 3);
}

TEST(Injector, RepairAllCancelsNotYetAppliedEvents) {
  sim::Engine eng;
  ebs::ClusterParams params;
  params.topo.compute_servers = 1;
  params.topo.storage_servers = 2;
  params.topo.servers_per_rack = 2;
  params.seed = 3;
  ebs::Cluster cluster(eng, params);
  Injector inj(cluster);

  FaultPlan plan;
  FaultEvent late;
  late.at = seconds(5);  // far in the future
  late.duration = ms(100);
  late.kind = FaultKind::kDeviceSilent;
  late.target = {TargetKind::kStorageTor, 0, -1};
  plan.events.push_back(late);
  inj.arm(plan);

  eng.run_until(ms(10));
  inj.repair_all();
  eng.run_until(seconds(6));
  EXPECT_EQ(inj.applied(), 0);  // never fired
  EXPECT_FALSE(cluster.clos().storage_tors[0]->faults().silent_dead);
}

TEST(Minimizer, DropsIrrelevantEventsAndShrinksDurations) {
  FaultPlan plan = sample_plan();
  plan.events[0].duration = ms(800);
  // "Fails" iff a kDeviceSilent event on a storage ToR with >= 100 ms
  // duration survives — events 1 and 2 are noise.
  auto still_fails = [](const FaultPlan& p) {
    for (const FaultEvent& e : p.events) {
      if (e.kind == FaultKind::kDeviceSilent &&
          e.target.kind == TargetKind::kStorageTor && e.duration >= ms(100)) {
        return true;
      }
    }
    return false;
  };
  const MinimizeResult res = minimize_plan(plan, still_fails);
  EXPECT_TRUE(res.converged);
  ASSERT_EQ(res.plan.events.size(), 1u);
  EXPECT_EQ(res.plan.events[0].kind, FaultKind::kDeviceSilent);
  EXPECT_LT(res.plan.events[0].duration, ms(800));
  EXPECT_GE(res.plan.events[0].duration, ms(100));
  EXPECT_GT(res.probes, 0);
}

// --- whole-harness runs ----------------------------------------------------

HarnessConfig quick_config(ebs::StackKind stack, std::uint64_t seed) {
  HarnessConfig cfg;
  cfg.spec.stack = stack;
  cfg.spec.seed = seed;
  cfg.active = ms(400);
  cfg.spec.workload.poisson_iops = 800.0;
  cfg.readback_samples = 16;
  return cfg;
}

TEST(Harness, CleanRunHasNoViolations) {
  HarnessConfig cfg = quick_config(ebs::StackKind::kSolar, 11);
  cfg.oracle.hang_oracle = true;  // nothing injected, so nothing may hang
  const RunReport r = run_chaos(cfg);
  EXPECT_TRUE(r.ok()) << r.violations.front().oracle << ": "
                      << r.violations.front().detail;
  EXPECT_GT(r.ios_completed, 0u);
  EXPECT_GT(r.crc_checks, 0u);  // durability oracle actually exercised
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.hangs, 0u);
}

TEST(Harness, ChaosRunIsBitReproducible) {
  Rng rng(31);
  GeneratorConfig gc;
  gc.window = ms(300);
  TopologyShape shape = test_shape();
  shape.has_fpga = true;
  const FaultPlan plan = generate_plan(rng, gc, shape);

  HarnessConfig cfg = quick_config(ebs::StackKind::kSolar, 13);
  cfg.plan = plan;
  const RunReport a = run_chaos(cfg);
  const RunReport b = run_chaos(cfg);
  EXPECT_EQ(a.signature(), b.signature());
  EXPECT_GT(a.faults_applied, 0u);
  EXPECT_EQ(a.faults_applied, a.faults_reverted);
}

// A repro bundle is the spec's JSON plus the plan's: rebuilding the config
// from those two strings alone must replay the run bit for bit, workload
// knobs included (a sim_fuzz-style draw, read fraction 0.2 + 0.15 * 3 being
// a double the default 6-digit print would round).
TEST(Harness, ReplayFromSpecAndPlanJsonMatchesOriginal) {
  TopologyShape shape = test_shape();
  shape.has_fpga = false;
  Rng rng(1001);
  GeneratorConfig gc;
  gc.window = ms(300);
  HarnessConfig cfg = quick_config(ebs::StackKind::kLuna, 1001);
  cfg.plan = generate_plan(rng, gc, shape);
  cfg.spec.workload.read_fraction = 0.2 + 0.15 * 3;
  cfg.spec.workload.block_size = 16384;
  ASSERT_FALSE(cfg.plan.events.empty());

  HarnessConfig replay = quick_config(ebs::StackKind::kSolar, 1);
  std::string err;
  ASSERT_TRUE(ebs::scenario_from_json(cfg.spec.to_json(), &replay.spec, &err))
      << err;
  ASSERT_TRUE(plan_from_json(cfg.plan.to_json(), &replay.plan, &err)) << err;
  EXPECT_EQ(replay.spec.workload.read_fraction,
            cfg.spec.workload.read_fraction);
  EXPECT_EQ(replay.plan.to_json(), cfg.plan.to_json());
  const RunReport original = run_chaos(cfg);
  EXPECT_GT(original.faults_applied, 0u);
  EXPECT_EQ(run_chaos(replay).signature(), original.signature());
}

// Each compute node drives one VD: a VD list of any other length cannot be
// honoured, so the harness refuses it instead of indexing past the list.
TEST(HarnessDeathTest, VdCountOtherThanComputeNodesAborts) {
  HarnessConfig cfg = quick_config(ebs::StackKind::kSolar, 1);
  ebs::VdSpec vd;
  vd.size_bytes = cfg.spec.vd_size_bytes;
  cfg.spec.vds.assign(static_cast<std::size_t>(cfg.spec.compute_nodes) + 1,
                      vd);
  EXPECT_DEATH(run_chaos(cfg), "spec.vds has 3 entries for 2 compute nodes");
}

// The durability oracle reads back acked bytes, so a spec that stores or
// writes none is refused instead of reporting false losses.
TEST(HarnessDeathTest, RunWithoutPayloadsAborts) {
  HarnessConfig no_store = quick_config(ebs::StackKind::kSolar, 1);
  no_store.spec.store_payload = false;
  EXPECT_DEATH(run_chaos(no_store),
               "needs store_payload and workload.real_payload");
  HarnessConfig no_payload = quick_config(ebs::StackKind::kSolar, 1);
  no_payload.spec.workload.real_payload = false;
  EXPECT_DEATH(run_chaos(no_payload),
               "needs store_payload and workload.real_payload");
}

// One long silent ToR. Healthy SOLAR redraws paths and stays hang-free
// (Table 2's zero column); with failover disabled the flows stay pinned
// and the hang oracle must fire. The three checks are separate tests so
// ctest can run them concurrently.
HarnessConfig planted_bug_config(bool disable_failover) {
  FaultEvent e;
  e.at = ms(10);
  e.duration = ms(1500);
  e.kind = FaultKind::kDeviceSilent;
  e.target = {TargetKind::kStorageTor, 0, -1};

  HarnessConfig cfg = quick_config(ebs::StackKind::kSolar, 17);
  cfg.plan.name = "planted-bug";
  cfg.plan.events.push_back(e);
  cfg.active = ms(1600);
  cfg.oracle.hang_oracle = true;
  cfg.disable_solar_failover = disable_failover;
  return cfg;
}

TEST(Harness, PlantedFailoverBugHealthyRunIsHangFree) {
  const RunReport healthy = run_chaos(planted_bug_config(false));
  EXPECT_TRUE(healthy.ok())
      << healthy.violations.front().oracle << ": "
      << healthy.violations.front().detail;
}

TEST(Harness, PlantedFailoverBugIsCaughtDeterministically) {
  const HarnessConfig cfg = planted_bug_config(true);
  const RunReport buggy = run_chaos(cfg);
  EXPECT_FALSE(buggy.ok());
  const RunReport buggy2 = run_chaos(cfg);
  EXPECT_EQ(buggy.signature(), buggy2.signature());  // fails the same way
}

TEST(Harness, PlantedFailoverBugMinimizesToSilentEvent) {
  const HarnessConfig cfg = planted_bug_config(true);
  const MinimizeResult min = minimize_plan(cfg.plan, [&](const FaultPlan& p) {
    HarnessConfig probe = cfg;
    probe.plan = p;
    return !run_chaos(probe).ok();
  });
  ASSERT_GE(min.plan.events.size(), 1u);
  EXPECT_EQ(min.plan.events[0].kind, FaultKind::kDeviceSilent);
  HarnessConfig replay = cfg;
  replay.plan = min.plan;
  EXPECT_FALSE(run_chaos(replay).ok());
}

}  // namespace
}  // namespace repro::chaos
