// Server-family conformance suite: the contract every server family from
// the StackFactory must honor, parameterized so each future family is
// covered for free. For every family (kernel-TCP, RDMA, SOLAR, and the
// erasure-coded kEcServer wrapping SOLAR) × {homogeneous, sharded}
// clusters the suite asserts, via the chaos harness's full oracle board:
//
//  * exactly-once + CRC durability on a clean (fault-free) run;
//  * bit-determinism: the run signature is a function of the config only,
//    identical across --threads 1, 2, 8 on the sharded build;
//  * observability is a read-only plane: obs-on and dark runs match;
//  * EC only: committed data survives any m concurrent fragment-holder
//    fail-stops (oracle green) and m+1 is detected as real data loss
//    ("ec_durability" fires).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"
#include "obs/obs.h"
#include "placement/policy.h"

namespace repro::chaos {
namespace {

using ebs::StackKind;

// gtest prints a case's bytes into its name, which name lists cut at 100
// chars: pointers go last so no address that moves per link is in the cut.
struct FamilyCase {
  StackKind stack;
  bool ec;
  const char* name;  ///< stack::to_string(ServerFamily) spelling
  /// Placement policy name ("legacy" / "rack-aware" / "exposure"); null =
  /// placement subsystem off entirely (the historical config).
  const char* policy = nullptr;
};

constexpr FamilyCase kFamilies[] = {
    {StackKind::kKernelTcp, false, "tcp"},
    {StackKind::kRdma, false, "rdma"},
    {StackKind::kSolar, false, "solar"},
    {StackKind::kSolar, true, "ec"},
    // Placement-policy sweep: every family × every policy must honor the
    // same conformance contract (exactly-once, CRC durability, thread-count
    // bit-determinism, obs read-only) as the policy-free configs above.
    {StackKind::kKernelTcp, false, "tcp_legacy", "legacy"},
    {StackKind::kKernelTcp, false, "tcp_rack", "rack-aware"},
    {StackKind::kKernelTcp, false, "tcp_exposure", "exposure"},
    {StackKind::kRdma, false, "rdma_legacy", "legacy"},
    {StackKind::kRdma, false, "rdma_rack", "rack-aware"},
    {StackKind::kRdma, false, "rdma_exposure", "exposure"},
    {StackKind::kSolar, false, "solar_legacy", "legacy"},
    {StackKind::kSolar, false, "solar_rack", "rack-aware"},
    {StackKind::kSolar, false, "solar_exposure", "exposure"},
    {StackKind::kSolar, true, "ec_legacy", "legacy"},
    {StackKind::kSolar, true, "ec_rack", "rack-aware"},
    {StackKind::kSolar, true, "ec_exposure", "exposure"},
};

HarnessConfig family_config(const FamilyCase& fc, int shards = 1,
                            int threads = 1) {
  HarnessConfig cfg;
  cfg.stack = fc.stack;
  cfg.seed = 2024;
  cfg.compute_nodes = 2;
  cfg.storage_nodes = 4;
  cfg.servers_per_rack = 2;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.active = ms(400);
  cfg.fio_max_ios = 150;
  cfg.poisson_iops = 600.0;
  cfg.readback_samples = 24;
  if (fc.ec) {
    cfg.ec.enabled = true;
    cfg.ec.k = 2;
    cfg.ec.m = 1;
  }
  if (fc.policy != nullptr) {
    cfg.placement.enabled = true;
    EXPECT_TRUE(
        placement::policy_from_string(fc.policy, &cfg.placement.policy));
  }
  return cfg;
}

class ServerFamilyConformance : public ::testing::TestWithParam<FamilyCase> {};

std::string case_name(const ::testing::TestParamInfo<FamilyCase>& info) {
  return info.param.name;
}

// Exactly-once + CRC durability: a fault-free run under the full oracle
// board (completion accounting, shadow-CRC read-back) must be green, with
// real traffic and real CRC checks behind the verdict.
TEST_P(ServerFamilyConformance, CleanRunExactlyOnceAndDurable) {
  const RunReport r = run_chaos(family_config(GetParam()));
  ASSERT_TRUE(r.ok()) << r.violations.front().oracle << ": "
                      << r.violations.front().detail;
  EXPECT_GT(r.ios_completed, 0u);
  EXPECT_GT(r.crc_checks, 0u);
  EXPECT_EQ(r.hangs, 0u);
}

// Bit-determinism: same config → same signature, and on the sharded build
// the worker-thread count is purely a speed knob — 1, 2 and 8 threads must
// produce the identical signature (engine schedule, completions, faults).
TEST_P(ServerFamilyConformance, BitDeterministicAcrossThreads) {
  const std::string homogeneous =
      run_chaos(family_config(GetParam())).signature();
  EXPECT_EQ(homogeneous, run_chaos(family_config(GetParam())).signature());

  const std::string sharded1 =
      run_chaos(family_config(GetParam(), /*shards=*/2, /*threads=*/1))
          .signature();
  for (const int threads : {2, 8}) {
    EXPECT_EQ(sharded1,
              run_chaos(family_config(GetParam(), /*shards=*/2, threads))
                  .signature())
        << "threads=" << threads;
  }
}

// Observability must be a read-only plane: attaching the full obs stack
// (registry, sampler, tracer) cannot perturb the simulation.
TEST_P(ServerFamilyConformance, ObsOnMatchesDark) {
  const std::string dark = run_chaos(family_config(GetParam())).signature();

  obs::ObsConfig oc;
  oc.sample_interval = ms(1);
  obs::Obs obs(oc);
  HarnessConfig lit = family_config(GetParam());
  lit.obs = &obs;
  EXPECT_EQ(run_chaos(lit).signature(), dark);
  EXPECT_GT(obs.sampler().samples_taken(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ServerFamilyConformance,
                         ::testing::ValuesIn(kFamilies), case_name);

// ---------------------------------------------------------------------------
// EC-only conformance: availability under f concurrent fragment losses.

FaultEvent storage_stop(int index) {
  FaultEvent e;
  e.at = ms(50);
  e.duration = 0;  // permanent until repair_all — still down at the audit
  e.kind = FaultKind::kDeviceStop;
  e.target.kind = TargetKind::kStorageNic;
  e.target.index = index;
  return e;
}

// Any m concurrent fragment-holder fail-stops: every committed cell must
// stay recoverable (mid-run EC audit green, degraded reads served, rebuild
// restores the fleet by quiesce).
TEST(EcConformance, SurvivesAnyMConcurrentFragmentLosses) {
  const FamilyCase ec{StackKind::kSolar, true, "ec"};
  const int width = 4;  // storage_nodes in family_config
  for (int victim = 0; victim < width; ++victim) {
    HarnessConfig cfg = family_config(ec);
    cfg.plan.name = "ec-m-losses";
    cfg.plan.events.push_back(storage_stop(victim));  // m = 1 loss
    const RunReport r = run_chaos(cfg);
    EXPECT_TRUE(r.ok()) << "victim " << victim << ": "
                        << (r.ok() ? ""
                                   : r.violations.front().oracle + ": " +
                                         r.violations.front().detail);
    EXPECT_GT(r.ios_completed, 0u);
  }
}

// Whole-rack fail-stop: the same two-server outage (both servers of rack
// 1 in a 3-rack, 6-server pod) is data loss under the legacy rotated
// layout — consecutive pool slots share a rack, so one rack can hold two
// of a stripe's k+m=3 fragments — but survivable under RackAwareSpread,
// whose schedule bounds any rack to ceil(3/3) = 1 fragment per stripe.
TEST(EcConformance, RackAwareSpreadSurvivesWholeRackFailStop) {
  auto rack_fail_config = [](const char* policy) {
    const FamilyCase ec{StackKind::kSolar, true, "ec"};
    HarnessConfig cfg = family_config(ec);
    cfg.storage_nodes = 6;
    cfg.servers_per_rack = 2;  // racks {0,1},{2,3},{4,5}
    cfg.plan.name = "rack-fail";
    cfg.plan.events.push_back(storage_stop(2));
    cfg.plan.events.push_back(storage_stop(3));
    if (policy != nullptr) {
      cfg.placement.enabled = true;
      EXPECT_TRUE(
          placement::policy_from_string(policy, &cfg.placement.policy));
    }
    return cfg;
  };
  auto ec_durability_fired = [](const RunReport& r) {
    return std::any_of(
        r.violations.begin(), r.violations.end(),
        [](const Violation& v) { return v.oracle == "ec_durability"; });
  };

  const RunReport legacy = run_chaos(rack_fail_config("legacy"));
  EXPECT_TRUE(ec_durability_fired(legacy))
      << "legacy rotated layout must lose data to a whole-rack fail-stop";

  const RunReport spread = run_chaos(rack_fail_config("rack-aware"));
  EXPECT_FALSE(ec_durability_fired(spread))
      << (spread.violations.empty()
              ? std::string()
              : spread.violations.front().oracle + ": " +
                    spread.violations.front().detail);
  EXPECT_GT(spread.ios_completed, 0u);
}

// m+1 concurrent losses exceed the code's correction budget: the
// durability-under-f-failures oracle must detect real data loss.
TEST(EcConformance, DetectsDataLossAtMPlusOneLosses) {
  const FamilyCase ec{StackKind::kSolar, true, "ec"};
  HarnessConfig cfg = family_config(ec);
  cfg.plan.name = "ec-m-plus-one";
  cfg.plan.events.push_back(storage_stop(0));
  cfg.plan.events.push_back(storage_stop(1));
  const RunReport r = run_chaos(cfg);
  EXPECT_FALSE(r.ok());
  const bool fired = std::any_of(
      r.violations.begin(), r.violations.end(),
      [](const Violation& v) { return v.oracle == "ec_durability"; });
  EXPECT_TRUE(fired) << "m+1 fragment losses must trip the EC oracle";
}

}  // namespace
}  // namespace repro::chaos
