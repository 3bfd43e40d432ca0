// Recovery coverage: every FaultKind in the DSL, applied for a bounded
// window and then repaired, must leave the cluster back at steady state —
// all I/O completes within the recovery SLO, committed data reads back
// with matching CRCs, no pooled packet or engine timer leaks, and
// post-recovery throughput lands within tolerance of a fault-free
// baseline. One parameterized run per kind keeps the sweep honest: a
// revert that forgets to undo its knob (or repairs too much, clobbering a
// composed fault) shows up as a violation or a throughput crater.
#include <gtest/gtest.h>

#include <string>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"

namespace repro::chaos {
namespace {

using ebs::StackKind;

struct KindCase {
  FaultKind kind;
  FaultTarget target;
  double magnitude = 0.0;
  TimeNs param = 0;
};

HarnessConfig base_config() {
  HarnessConfig cfg;
  cfg.spec.stack = StackKind::kSolar;  // has FPGA: every kind is injectable
  cfg.spec.seed = 404;
  cfg.active = ms(700);
  cfg.spec.workload.poisson_iops = 1000.0;
  cfg.readback_samples = 24;
  return cfg;
}

class ChaosRecoveryTest : public ::testing::TestWithParam<KindCase> {};

TEST_P(ChaosRecoveryTest, FaultThenRepairRestoresSteadyState) {
  const KindCase& kc = GetParam();

  HarnessConfig cfg = base_config();
  FaultEvent e;
  e.at = ms(50);
  e.duration = ms(300);
  e.kind = kc.kind;
  e.target = kc.target;
  e.magnitude = kc.magnitude;
  e.param = kc.param;
  cfg.plan.name = std::string("recovery-") + to_string(kc.kind);
  cfg.plan.events.push_back(e);

  const RunReport faulted = run_chaos(cfg);
  ASSERT_TRUE(faulted.ok()) << faulted.violations.front().oracle << ": "
                            << faulted.violations.front().detail;
  EXPECT_EQ(faulted.faults_applied, 1u);
  EXPECT_EQ(faulted.faults_reverted, 1u);
  EXPECT_GT(faulted.crc_checks, 0u);

  // Throughput tolerance vs a fault-free baseline: the fault window is
  // 300 ms of a 700 ms run, so even a fully-stalled window leaves > half
  // the baseline's completions. A revert that silently sticks (rate left
  // on, SSD left stalled, PCIe left degraded) drags the whole run down
  // and the drain phase out, and trips this floor.
  static const RunReport baseline = run_chaos(base_config());
  ASSERT_TRUE(baseline.ok());
  EXPECT_GE(faulted.ios_completed, baseline.ios_completed / 2)
      << "post-recovery throughput cratered: " << faulted.ios_completed
      << " vs baseline " << baseline.ios_completed;
}

std::string case_name(const ::testing::TestParamInfo<KindCase>& info) {
  return to_string(info.param.kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ChaosRecoveryTest,
    ::testing::Values(
        KindCase{FaultKind::kLinkFail, {TargetKind::kComputeNic, 0, 0}},
        KindCase{FaultKind::kDeviceStop, {TargetKind::kStorageTor, 0, -1}},
        KindCase{FaultKind::kDeviceSilent, {TargetKind::kStorageTor, 1, -1}},
        KindCase{FaultKind::kBlackhole, {TargetKind::kStorageSpine, 0, -1}, 0.5},
        KindCase{FaultKind::kLoss, {TargetKind::kComputeTor, 0, -1}, 0.3},
        KindCase{FaultKind::kCorrupt, {TargetKind::kComputeTor, 1, -1}, 0.1},
        KindCase{FaultKind::kDuplicate, {TargetKind::kStorageTor, 2, -1}, 0.1},
        KindCase{FaultKind::kReorder,
                 {TargetKind::kStorageTor, 3, -1},
                 0.2,
                 us(150)},
        KindCase{FaultKind::kSsdLatency, {TargetKind::kStorageSsd, 0, -1}, 8.0},
        KindCase{FaultKind::kSsdStall, {TargetKind::kStorageSsd, 1, -1}},
        KindCase{FaultKind::kCpuStall, {TargetKind::kStorageCpu, 2, -1}},
        KindCase{FaultKind::kPcieDegrade, {TargetKind::kComputePcie, 0, -1}, 4.0},
        KindCase{FaultKind::kFpgaPreCrcFlip,
                 {TargetKind::kComputeFpga, 0, -1},
                 5e-4},
        KindCase{FaultKind::kFpgaPostCrcFlip,
                 {TargetKind::kComputeFpga, 1, -1},
                 5e-4},
        KindCase{FaultKind::kFpgaCrcEngine,
                 {TargetKind::kComputeFpga, 0, -1},
                 1e-3}),
    case_name);

// ---------------------------------------------------------------------------
// Erasure-coded fleet under the same recovery contract. The run carries
// the extra EC durability oracle: any ≤m concurrent fragment-holder
// outage must stay green (degraded reads + background rebuild), and a
// minimized m+1 plan must fire it — validating the oracle the same way
// sim_fuzz validates the hang oracle with a planted bug.

HarnessConfig ec_config() {
  HarnessConfig cfg = base_config();
  cfg.spec.seed = 405;
  cfg.spec.ec.enabled = true;
  cfg.spec.ec.k = 2;
  cfg.spec.ec.m = 1;  // pool of 4 storage nodes = k + m + 1: one spare
  return cfg;
}

FaultEvent ec_fault(FaultKind kind, TargetKind target, int index,
                    TimeNs duration) {
  FaultEvent e;
  e.at = ms(50);
  e.duration = duration;
  e.kind = kind;
  e.target.kind = target;
  e.target.index = index;
  e.target.sub = -1;
  return e;
}

TEST(EcRecovery, SsdStallOnFragmentHolderStaysGreen) {
  HarnessConfig cfg = ec_config();
  cfg.plan.name = "ec-ssd-stall";
  cfg.plan.events.push_back(
      ec_fault(FaultKind::kSsdStall, TargetKind::kStorageSsd, 0, ms(300)));
  const RunReport r = run_chaos(cfg);
  ASSERT_TRUE(r.ok()) << r.violations.front().oracle << ": "
                      << r.violations.front().detail;
  EXPECT_EQ(r.faults_applied, 1u);
  EXPECT_EQ(r.faults_reverted, 1u);
  EXPECT_GT(r.crc_checks, 0u);
}

TEST(EcRecovery, FailStopWithinBudgetRepairsAndRebuilds) {
  HarnessConfig cfg = ec_config();
  cfg.plan.name = "ec-fail-stop";
  cfg.plan.events.push_back(
      ec_fault(FaultKind::kDeviceStop, TargetKind::kStorageNic, 1, ms(300)));
  const RunReport r = run_chaos(cfg);
  ASSERT_TRUE(r.ok()) << r.violations.front().oracle << ": "
                      << r.violations.front().detail;
  EXPECT_EQ(r.faults_reverted, 1u);
  EXPECT_GT(r.ios_completed, 0u);
}

TEST(EcRecovery, MinimizedPlanAtMPlusOneTripsOracle) {
  HarnessConfig cfg = ec_config();
  cfg.plan.name = "ec-m-plus-one-minimized";
  // Two permanent concurrent fail-stops: the smallest plan that exceeds
  // m = 1. Still down at the mid-run audit → real data loss, detected.
  cfg.plan.events.push_back(
      ec_fault(FaultKind::kDeviceStop, TargetKind::kStorageNic, 0, 0));
  cfg.plan.events.push_back(
      ec_fault(FaultKind::kDeviceStop, TargetKind::kStorageNic, 1, 0));
  const RunReport r = run_chaos(cfg);
  EXPECT_FALSE(r.ok());
  bool fired = false;
  for (const Violation& v : r.violations) {
    if (v.oracle == "ec_durability") fired = true;
  }
  EXPECT_TRUE(fired) << "m+1 concurrent losses must trip the EC oracle";
}

}  // namespace
}  // namespace repro::chaos
