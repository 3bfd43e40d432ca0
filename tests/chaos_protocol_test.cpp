// Protocol robustness under adversarial wire conditions: the SOLAR
// client/server pair and the kernel-TCP/LUNA transport must deliver
// exactly-once I/O completion and end-to-end CRC integrity while switches
// drop, corrupt, duplicate, and reorder packets. Corrupted frames are
// FCS-dropped by the receiving NIC (never delivered upward), duplicates
// must be absorbed by sequence/idempotence logic, and reordering must not
// un-order committed data. The oracle board turns each property into a
// violation, so `ok()` is the whole theorem.
#include <gtest/gtest.h>

#include <memory>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"
#include "chaos/injector.h"
#include "ebs/cluster.h"
#include "net/network.h"
#include "sim/engine.h"
#include "workload/fio.h"

namespace repro::chaos {
namespace {

using ebs::StackKind;

/// Drop + corrupt + duplicate + reorder spread across the fabric, all held
/// until repair_all so the whole active window runs under fire.
FaultPlan hostile_wire_plan() {
  FaultPlan plan;
  plan.name = "hostile-wire";
  auto add = [&plan](FaultKind kind, FaultTarget target, double magnitude,
                     TimeNs param = 0) {
    FaultEvent e;
    e.at = ms(5);
    e.duration = 0;  // held until repair_all
    e.kind = kind;
    e.target = target;
    e.magnitude = magnitude;
    e.param = param;
    plan.events.push_back(e);
  };
  add(FaultKind::kLoss, {TargetKind::kStorageTor, 0, -1}, 0.08);
  add(FaultKind::kCorrupt, {TargetKind::kStorageTor, 1, -1}, 0.05);
  add(FaultKind::kDuplicate, {TargetKind::kComputeTor, 0, -1}, 0.08);
  add(FaultKind::kReorder, {TargetKind::kComputeTor, 1, -1}, 0.1, us(150));
  return plan;
}

RunReport run(StackKind stack, bool arm_hang_oracle) {
  HarnessConfig cfg;
  cfg.spec.stack = stack;
  cfg.spec.seed = 99;
  cfg.plan = hostile_wire_plan();
  cfg.active = ms(600);
  cfg.spec.workload.read_fraction = 0.5;  // plenty of reads to exercise the CRC oracle
  cfg.oracle.hang_oracle = arm_hang_oracle;
  return run_chaos(cfg);
}

TEST(ChaosProtocol, SolarSurvivesHostileWire) {
  const FaultPlan plan = hostile_wire_plan();
  ASSERT_TRUE(hang_oracle_applicable(StackKind::kSolar, plan));
  const RunReport r = run(StackKind::kSolar, /*arm_hang_oracle=*/true);
  EXPECT_TRUE(r.ok()) << r.violations.front().oracle << ": "
                      << r.violations.front().detail;
  EXPECT_GT(r.ios_completed, 0u);
  EXPECT_GT(r.crc_checks, 0u);
  EXPECT_EQ(r.faults_applied, 4u);
  EXPECT_EQ(r.faults_applied, r.faults_reverted);
}

TEST(ChaosProtocol, SolarStarSurvivesHostileWire) {
  const RunReport r = run(StackKind::kSolarStar, /*arm_hang_oracle=*/true);
  EXPECT_TRUE(r.ok()) << r.violations.front().oracle << ": "
                      << r.violations.front().detail;
  EXPECT_GT(r.crc_checks, 0u);
}

TEST(ChaosProtocol, KernelTcpSurvivesHostileWire) {
  // No hang oracle: kernel TCP may legitimately back off past 1 s under
  // sustained loss. Exactly-once, durability, SLO, conservation still hold.
  const RunReport r = run(StackKind::kKernelTcp, /*arm_hang_oracle=*/false);
  EXPECT_TRUE(r.ok()) << r.violations.front().oracle << ": "
                      << r.violations.front().detail;
  EXPECT_GT(r.ios_completed, 0u);
  EXPECT_GT(r.crc_checks, 0u);
}

TEST(ChaosProtocol, LunaSurvivesHostileWire) {
  const RunReport r = run(StackKind::kLuna, /*arm_hang_oracle=*/false);
  EXPECT_TRUE(r.ok()) << r.violations.front().oracle << ": "
                      << r.violations.front().detail;
  EXPECT_GT(r.crc_checks, 0u);
}

// The faults above must actually fire on the wire — otherwise the four
// "survives" tests are vacuous. Drive a cluster directly and check the
// network's wire-fault and FCS-drop counters.
TEST(ChaosProtocol, WireFaultMachineryActuallyFires) {
  sim::Engine eng;
  ebs::ClusterParams params;
  params.topo.compute_servers = 2;
  params.topo.storage_servers = 4;
  params.topo.servers_per_rack = 2;
  params.stack = StackKind::kSolar;
  params.seed = 7;
  ebs::Cluster cluster(eng, params);
  const std::uint64_t vd = cluster.create_vd(1ull << 30);

  workload::PoissonConfig pc;
  pc.vd_id = vd;
  pc.vd_size = 1ull << 30;
  pc.iops = 4000;
  pc.block_size = 8192;
  pc.read_fraction = 0.5;
  workload::PoissonLoad load(
      eng,
      [&](transport::IoRequest io, transport::IoCompleteFn done) {
        cluster.compute(0).submit_io(std::move(io), std::move(done));
      },
      pc, Rng(3));

  Injector inj(cluster);
  FaultPlan plan;
  auto add = [&plan](FaultKind kind, FaultTarget t, double mag,
                     TimeNs param = 0) {
    FaultEvent e;
    e.at = ms(10);
    e.duration = 0;
    e.kind = kind;
    e.target = t;
    e.magnitude = mag;
    e.param = param;
    plan.events.push_back(e);
  };
  // High rates on every switch tier a flow must cross.
  add(FaultKind::kCorrupt, {TargetKind::kStorageTor, 0, -1}, 0.2);
  add(FaultKind::kCorrupt, {TargetKind::kStorageTor, 1, -1}, 0.2);
  add(FaultKind::kDuplicate, {TargetKind::kComputeTor, 0, -1}, 0.2);
  add(FaultKind::kDuplicate, {TargetKind::kComputeTor, 1, -1}, 0.2);
  add(FaultKind::kReorder, {TargetKind::kCore, 0, -1}, 0.3, us(100));
  add(FaultKind::kReorder, {TargetKind::kCore, 1, -1}, 0.3, us(100));

  eng.at(0, [&] { load.start(); });
  eng.run_until(ms(5));
  inj.arm(plan);
  eng.run_until(ms(400));
  load.stop();
  inj.repair_all();
  eng.run_until(eng.now() + seconds(10));

  const net::Network::WireFaultStats& wire = cluster.network().wire_faults();
  EXPECT_GT(wire.corrupted, 0u);
  EXPECT_GT(wire.duplicated, 0u);
  EXPECT_GT(wire.reordered, 0u);
  // Every corrupted frame that reached a NIC was FCS-dropped, never
  // delivered: the drop counter moves in lockstep with delivery attempts.
  EXPECT_GT(cluster.network().drops().corrupt_fcs, 0u);
}

}  // namespace
}  // namespace repro::chaos
