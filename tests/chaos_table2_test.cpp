// Locks Table 2's qualitative pattern under the chaos harness: silent
// failures (dead ToR, blackhole) hang LUNA — whose 5-tuples stay pinned to
// the broken element — and never SOLAR, which fails over after consecutive
// per-path timeouts; fail-stop failures (carrier loss) hang neither stack.
// This is the bench's "pattern of zeros" expressed as hard assertions, so
// a regression in path failover or carrier detection fails CI instead of
// just reshaping a table.
#include <gtest/gtest.h>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"

namespace repro::chaos {
namespace {

using ebs::StackKind;

FaultPlan one_event(FaultKind kind, FaultTarget target, TimeNs duration,
                    double magnitude = 0.0) {
  FaultPlan plan;
  plan.name = "table2";
  FaultEvent e;
  e.at = ms(20);
  e.duration = duration;
  e.kind = kind;
  e.target = target;
  e.magnitude = magnitude;
  plan.events.push_back(e);
  return plan;
}

RunReport run(StackKind stack, const FaultPlan& plan) {
  HarnessConfig cfg;
  cfg.spec.stack = stack;
  cfg.spec.seed = 1234;
  cfg.plan = plan;
  cfg.active = ms(1500);
  cfg.spec.workload.poisson_iops = 1200.0;
  cfg.spec.workload.read_fraction = 0.2;  // paper's R:W = 1:4
  return run_chaos(cfg);
}

TEST(ChaosTable2, SilentTorFailureHangsLunaNeverSolar) {
  const FaultPlan plan = one_event(
      FaultKind::kDeviceSilent, {TargetKind::kComputeTor, 0, -1}, ms(1200));
  const RunReport luna = run(StackKind::kLuna, plan);
  const RunReport solar = run(StackKind::kSolar, plan);
  EXPECT_GT(luna.hangs, 0u);   // pinned 5-tuples wait out the outage
  EXPECT_EQ(solar.hangs, 0u);  // multi-path failover dodges the dead ToR
  // LUNA's hung I/Os are the *signal*, not a bug: they still complete
  // within the recovery SLO once the ToR is repaired.
  EXPECT_TRUE(luna.ok()) << luna.violations.front().oracle << ": "
                         << luna.violations.front().detail;
  EXPECT_TRUE(solar.ok()) << solar.violations.front().oracle << ": "
                          << solar.violations.front().detail;
}

TEST(ChaosTable2, TorBlackholeHangsLunaNeverSolar) {
  const FaultPlan plan = one_event(
      FaultKind::kBlackhole, {TargetKind::kComputeTor, 1, -1}, ms(1200), 0.5);
  ASSERT_TRUE(hang_oracle_applicable(StackKind::kSolar, plan));
  const RunReport luna = run(StackKind::kLuna, plan);

  HarnessConfig solar_cfg;
  solar_cfg.spec.stack = StackKind::kSolar;
  solar_cfg.spec.seed = 1234;
  solar_cfg.plan = plan;
  solar_cfg.active = ms(1500);
  solar_cfg.spec.workload.poisson_iops = 1200.0;
  solar_cfg.spec.workload.read_fraction = 0.2;
  solar_cfg.oracle.hang_oracle = true;  // SOLAR-zero as a hard invariant
  const RunReport solar = run_chaos(solar_cfg);

  EXPECT_GT(luna.hangs, 0u);
  EXPECT_EQ(solar.hangs, 0u);
  EXPECT_TRUE(luna.ok()) << luna.violations.front().oracle << ": "
                         << luna.violations.front().detail;
  EXPECT_TRUE(solar.ok()) << solar.violations.front().oracle << ": "
                          << solar.violations.front().detail;
}

TEST(ChaosTable2, FailStopSpineHangsNeitherStack) {
  // Carrier loss is detected: both stacks steer around the dead spine
  // within the detection delay, far under the 1 s hang threshold.
  const FaultPlan plan = one_event(
      FaultKind::kDeviceStop, {TargetKind::kComputeSpine, 0, -1}, ms(1200));
  const RunReport luna = run(StackKind::kLuna, plan);
  const RunReport solar = run(StackKind::kSolar, plan);
  EXPECT_EQ(luna.hangs, 0u);
  EXPECT_EQ(solar.hangs, 0u);
  EXPECT_TRUE(luna.ok());
  EXPECT_TRUE(solar.ok());
}

TEST(ChaosTable2, TorPortFailureHangsNeitherStack) {
  const FaultPlan plan = one_event(
      FaultKind::kLinkFail, {TargetKind::kComputeNic, 0, 0}, ms(1200));
  const RunReport luna = run(StackKind::kLuna, plan);
  const RunReport solar = run(StackKind::kSolar, plan);
  EXPECT_EQ(luna.hangs, 0u);
  EXPECT_EQ(solar.hangs, 0u);
  EXPECT_TRUE(luna.ok());
  EXPECT_TRUE(solar.ok());
}

TEST(ChaosTable2, TorRebootComposesFailStopAndSilentWindow) {
  // The bench's classic: links drop (detected), come back 1 s later with
  // the FIB unprogrammed — a silent blackhole window right after the
  // fail-stop repair. Kind-specific reverts are what make this composable
  // as two plan events.
  FaultPlan plan;
  plan.name = "tor-reboot";
  FaultEvent stop;
  stop.at = ms(20);
  stop.duration = seconds(1);
  stop.kind = FaultKind::kDeviceStop;
  stop.target = {TargetKind::kComputeTor, 0, -1};
  plan.events.push_back(stop);
  FaultEvent silent;
  silent.at = ms(20) + seconds(1);  // onset coincides with the repair
  silent.duration = 0;  // ops repair the FIB much later (at repair_all)
  silent.kind = FaultKind::kDeviceSilent;
  silent.target = {TargetKind::kComputeTor, 0, -1};
  plan.events.push_back(silent);

  // The silent window must outlast the 1 s hang threshold for pinned
  // LUNA I/Os to cross the line.
  HarnessConfig cfg;
  cfg.spec.seed = 1234;
  cfg.plan = plan;
  cfg.active = ms(2300);
  cfg.spec.workload.poisson_iops = 1200.0;
  cfg.spec.workload.read_fraction = 0.2;
  cfg.spec.stack = StackKind::kLuna;
  const RunReport luna = run_chaos(cfg);
  cfg.spec.stack = StackKind::kSolar;
  const RunReport solar = run_chaos(cfg);
  EXPECT_GT(luna.hangs, 0u);   // the unprogrammed-FIB window pins LUNA
  EXPECT_EQ(solar.hangs, 0u);
  EXPECT_TRUE(luna.ok());
  EXPECT_TRUE(solar.ok());
}

}  // namespace
}  // namespace repro::chaos
