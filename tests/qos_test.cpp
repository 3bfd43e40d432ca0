// SLO-aware overload control: contracts, the load predictor, early
// rejection, and the chaos interaction.
//
// The determinism tests mirror the overload bench at miniature scale: the
// same overloaded SOLAR fleet must produce bit-identical admission
// bookkeeping at 1, 2 and 8 worker threads, with early rejection on or
// off. The rejection-storm test runs the full chaos harness with the
// admission layer shedding most of the offered load — every oracle
// (exactly-once, recovery, durability) must stay green, because a
// rejection is a completion, not a loss.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"
#include "common/crc32.h"
#include "ebs/cluster.h"
#include "ebs/scenario.h"
#include "ec/maintenance.h"
#include "obs/fields.h"
#include "qos/admission.h"
#include "qos/predictor.h"
#include "qos/scheduler.h"
#include "qos/slo.h"
#include "sa/segment_table.h"
#include "sim/shard_context.h"
#include "sim/sharded.h"
#include "workload/fio.h"

namespace repro::qos {
namespace {

using transport::IoCompleteFn;
using transport::IoRequest;
using transport::IoResult;

TEST(SloJson, SpecRoundTrip) {
  SloSpec s;
  s.target_p99 = us(1500);
  s.guaranteed_iops = 3200.0;
  s.cls = SloClass::kGuaranteed;

  SloSpec back;
  std::string err;
  ASSERT_TRUE(obs::from_json(obs::to_json(s), &back, "slo", &err)) << err;
  EXPECT_EQ(back.target_p99, s.target_p99);
  EXPECT_DOUBLE_EQ(back.guaranteed_iops, s.guaranteed_iops);
  EXPECT_EQ(back.cls, s.cls);
}

TEST(SloJson, ParamsRoundTrip) {
  QosParams p;
  p.enabled = true;
  p.early_reject = true;
  p.headroom = 0.75;
  p.reject_latency = us(25);
  p.predictor_window = ms(8);
  p.predictor_buckets = 16;
  p.sched_enabled = true;
  p.sched_weight_guaranteed = 5;
  p.sched_weight_best_effort = 2;

  QosParams back;
  std::string err;
  ASSERT_TRUE(obs::from_json(obs::to_json(p), &back, "qos", &err)) << err;
  EXPECT_EQ(back.enabled, p.enabled);
  EXPECT_EQ(back.early_reject, p.early_reject);
  EXPECT_DOUBLE_EQ(back.headroom, p.headroom);
  EXPECT_EQ(back.reject_latency, p.reject_latency);
  EXPECT_EQ(back.predictor_window, p.predictor_window);
  EXPECT_EQ(back.predictor_buckets, p.predictor_buckets);
  EXPECT_EQ(back.sched_enabled, p.sched_enabled);
  EXPECT_EQ(back.sched_weight_guaranteed, p.sched_weight_guaranteed);
  EXPECT_EQ(back.sched_weight_best_effort, p.sched_weight_best_effort);
}

TEST(SloJson, ScenarioSpecCarriesContracts) {
  ebs::ScenarioSpec spec;
  spec.name = "qos_rt";
  spec.compute_nodes = 1;
  spec.storage_nodes = 2;
  ebs::VdSpec vd;
  vd.size_bytes = 64ull << 20;
  vd.has_slo = true;
  vd.slo.target_p99 = ms(3);
  vd.slo.guaranteed_iops = 1000.0;
  vd.slo.cls = SloClass::kGuaranteed;
  spec.vds.push_back(vd);
  spec.qos.enabled = true;
  spec.qos.early_reject = true;
  spec.qos.headroom = 0.9;

  ebs::ScenarioSpec back;
  std::string err;
  ASSERT_TRUE(ebs::scenario_from_json(spec.to_json(), &back, &err)) << err;
  ASSERT_EQ(back.vds.size(), 1u);
  EXPECT_TRUE(back.vds[0].has_slo);
  EXPECT_EQ(back.vds[0].slo.target_p99, ms(3));
  EXPECT_DOUBLE_EQ(back.vds[0].slo.guaranteed_iops, 1000.0);
  EXPECT_EQ(back.vds[0].slo.cls, SloClass::kGuaranteed);
  EXPECT_TRUE(back.qos.enabled);
  EXPECT_TRUE(back.qos.early_reject);
  EXPECT_DOUBLE_EQ(back.qos.headroom, 0.9);
}

TEST(LoadPredictor, ColdWindowNeverRejects) {
  LoadPredictor p(ms(4), 8);
  // No completions observed: predict 0 regardless of queue depth.
  EXPECT_EQ(p.predict(us(100), 500), 0);
}

TEST(LoadPredictor, DrainGrowsWithQueueDepth) {
  LoadPredictor p(ms(4), 8);
  // 10 completions at 100us each over the first ms.
  for (int i = 0; i < 10; ++i) {
    p.on_complete(us(100) * (i + 1), us(100));
  }
  const TimeNs shallow = p.predict(ms(1), 1);
  const TimeNs deep = p.predict(ms(1), 100);
  EXPECT_GT(shallow, 0);
  EXPECT_GT(deep, shallow);
  // Little's law: 100 in flight at 10 completions/ms drains in ~10ms.
  EXPECT_GE(deep, ms(5));
}

TEST(LoadPredictor, DeterministicReplay) {
  // Same event sequence, same queries: bit-identical answers.
  const auto run = [] {
    LoadPredictor p(ms(4), 8);
    Rng rng(99);
    std::vector<std::uint64_t> sig;
    TimeNs now = 0;
    for (int i = 0; i < 2000; ++i) {
      now += static_cast<TimeNs>(rng.next_below(50000));
      p.on_admit(now);
      if (rng.next_below(3) != 0) {
        p.on_complete(now, static_cast<TimeNs>(rng.next_below(2000000)));
      }
      sig.push_back(static_cast<std::uint64_t>(
          p.predict(now, static_cast<int>(rng.next_below(64)))));
      sig.push_back(static_cast<std::uint64_t>(p.admitted_rate(now) * 1e6));
    }
    return sig;
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Bit-determinism of the full admission pipeline across thread counts: a
// miniature overloaded fleet (one throttled DPU core per node, offered load
// far past it), fingerprinted over every per-node, per-class counter.

struct MiniResult {
  std::uint64_t issued = 0;
  std::uint64_t rejected = 0;
  std::uint64_t fingerprint = 0;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xFF51AFD7ED558CCDull;
}

MiniResult run_mini_overload(int threads, bool early_reject) {
  ebs::ClusterParams p;
  p.topo.compute_servers = 2;
  p.topo.storage_servers = 2;
  p.topo.servers_per_rack = 1;
  p.stack = ebs::StackKind::kSolar;
  p.seed = 42;
  p.block_server.store_payload = false;
  p.qos.enabled = true;
  p.qos.early_reject = early_reject;
  p.qos.sched_enabled = true;
  p.qos.headroom = 0.8;
  p.dpu.cpu_cores = 1;
  p.solar.cpu_per_rpc = us(100);  // throttle: ~10K stage-ops/s per node

  sim::ShardedEngine se(4, threads);
  ebs::Cluster cluster(se, p);
  const int ncompute = cluster.num_compute();
  std::vector<std::uint64_t> vds;
  for (int i = 0; i < ncompute; ++i) {
    vds.push_back(cluster.create_vd(64ull << 20));
    SloSpec slo;
    slo.target_p99 = ms(2);
    slo.guaranteed_iops = i == 0 ? 1000.0 : 0.0;
    slo.cls = i == 0 ? SloClass::kGuaranteed : SloClass::kBestEffort;
    cluster.set_slo(vds.back(), slo);
  }

  struct NodeLoad {
    std::unique_ptr<workload::PoissonLoad> gen;
    std::uint64_t issued = 0;
  };
  std::vector<NodeLoad> loads(static_cast<std::size_t>(ncompute));
  Rng rng(777);
  for (int i = 0; i < ncompute; ++i) {
    NodeLoad& nl = loads[static_cast<std::size_t>(i)];
    auto submit = [&cluster, &nl, i](IoRequest io, IoCompleteFn done) {
      ++nl.issued;
      cluster.compute(i).submit_io(std::move(io), std::move(done));
    };
    workload::PoissonConfig pc;
    pc.vd_id = vds[static_cast<std::size_t>(i)];
    pc.vd_size = 64ull << 20;
    pc.iops = 50000.0;  // ~5x one throttled core
    pc.read_fraction = 0.7;
    pc.block_size = 4096;
    sim::ShardScope scope(cluster.compute_shard(i));
    nl.gen = std::make_unique<workload::PoissonLoad>(
        cluster.engine(), submit, pc,
        rng.fork(static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < ncompute; ++i) {
    sim::ShardScope scope(cluster.compute_shard(i));
    sim::Engine& he = cluster.engine();
    he.at(he.now(),
          [&loads, i] { loads[static_cast<std::size_t>(i)].gen->start(); });
  }
  se.run_until(ms(10));
  for (int i = 0; i < ncompute; ++i) {
    sim::ShardScope scope(cluster.compute_shard(i));
    loads[static_cast<std::size_t>(i)].gen->stop();
  }
  se.run();

  MiniResult r;
  std::uint64_t h = mix(se.executed(), static_cast<std::uint64_t>(se.now()));
  for (int i = 0; i < ncompute; ++i) {
    r.issued += loads[static_cast<std::size_t>(i)].issued;
    h = mix(h, loads[static_cast<std::size_t>(i)].issued);
    const NodeAdmission* adm = cluster.compute(i).admission();
    const NodeAdmission::Stats& st = adm->stats();
    for (int c = 0; c < kSloClasses; ++c) {
      r.rejected += st.rejected[c];
      h = mix(h, st.admitted[c]);
      h = mix(h, st.rejected[c]);
      h = mix(h, st.slo_ok[c]);
      h = mix(h, st.slo_violated[c]);
    }
  }
  r.fingerprint = h;
  return r;
}

TEST(QosDeterminism, BitIdenticalAcrossThreads) {
  for (const bool early : {false, true}) {
    const MiniResult t1 = run_mini_overload(1, early);
    const MiniResult t2 = run_mini_overload(2, early);
    const MiniResult t8 = run_mini_overload(8, early);
    EXPECT_EQ(t1.fingerprint, t2.fingerprint)
        << "early_reject=" << early << ": 1 vs 2 threads";
    EXPECT_EQ(t1.fingerprint, t8.fingerprint)
        << "early_reject=" << early << ": 1 vs 8 threads";
    EXPECT_GT(t1.issued, 0u);
    if (early) {
      // 5x saturation: the gate must actually shed load.
      EXPECT_GT(t1.rejected, 0u);
    } else {
      EXPECT_EQ(t1.rejected, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Rejection storm under the chaos oracles: drive the harness far past
// capacity with early rejection on. Rejections complete with kRejected,
// which the oracles must treat as an error outcome — never as a lost or
// duplicated I/O, and never as a hang.

/// Declares one VD per compute node, each at the spec's default size and
/// under the `slo` contract.
void slo_on_every_vd(ebs::ScenarioSpec* spec, const SloSpec& slo) {
  ebs::VdSpec vd;
  vd.size_bytes = spec->vd_size_bytes;
  vd.has_slo = true;
  vd.slo = slo;
  spec->vds.assign(static_cast<std::size_t>(spec->compute_nodes), vd);
}

TEST(QosChaos, RejectionStormKeepsOraclesGreen) {
  chaos::HarnessConfig cfg;
  cfg.spec.stack = ebs::StackKind::kSolar;
  cfg.spec.seed = 7;
  cfg.spec.workload.poisson_iops = 30000.0;  // storm: ~10x one throttled core
  cfg.dpu_cpu_cores = 1;
  cfg.solar_cpu_per_rpc = us(100);
  cfg.spec.workload.max_ios = 100;
  cfg.active = ms(200);
  cfg.spec.qos.enabled = true;
  cfg.spec.qos.early_reject = true;
  cfg.spec.qos.sched_enabled = true;
  cfg.spec.qos.headroom = 0.8;
  SloSpec slo;
  slo.target_p99 = ms(2);
  slo.cls = SloClass::kBestEffort;
  slo_on_every_vd(&cfg.spec, slo);

  const chaos::RunReport report = chaos::run_chaos(cfg);
  EXPECT_TRUE(report.ok()) << report.violations.size() << " violations";
  EXPECT_GT(report.ios_completed, 0u);
  // The storm must have tripped the gate: rejections surface as errors.
  EXPECT_GT(report.errors, 0u);
  EXPECT_EQ(report.hangs, 0u);
}

// ---------------------------------------------------------------------------
// EC rebuild traffic is strictly best-effort: every sub-I/O the
// maintenance agent issues carries `background`, keys under
// kBackgroundTenant (which no SloTable maps), and is served from the
// best-effort WFQ class — even when every real VD holds a guaranteed
// contract. A rebuild storm must never consume guaranteed-class service.

std::vector<std::uint8_t> qe_pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (auto& b : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  return v;
}

TEST(QosEc, RebuildTrafficServedBestEffort) {
  sim::Engine eng;
  ebs::ClusterParams p;
  p.topo.compute_servers = 1;
  p.topo.storage_servers = 4;  // k + m + 1: one spare for the rebuild
  p.topo.servers_per_rack = 4;
  p.stack = ebs::StackKind::kSolar;
  p.seed = 31;
  p.block_server.store_payload = true;
  p.ec.enabled = true;
  p.ec.k = 2;
  p.ec.m = 1;
  p.qos.enabled = true;
  p.qos.sched_enabled = true;
  ebs::Cluster cluster(eng, p);
  const std::uint64_t vd = cluster.create_vd(32ull << 20);
  SloSpec slo;
  slo.cls = SloClass::kGuaranteed;
  slo.guaranteed_iops = 1000.0;
  cluster.set_slo(vd, slo);

  // Foreground writes covering both data fragments of stripe 0, under the
  // guaranteed contract.
  for (const std::uint64_t off :
       {std::uint64_t{0}, sa::SegmentTable::kSegmentBytes}) {
    IoRequest io;
    io.vd_id = vd;
    io.op = transport::OpType::kWrite;
    io.offset = off;
    io.len = 8192;
    io.payload = transport::make_placeholder_blocks(off, io.len, 4096);
    for (auto& blk : io.payload) {
      blk.data = qe_pattern(blk.len, blk.lba + 1);
      blk.crc = crc32_raw(blk.data);
    }
    bool done = false;
    eng.at(eng.now(), [&] {
      cluster.compute(0).submit_io(std::move(io), [&](IoResult r) {
        EXPECT_EQ(r.status, transport::StorageStatus::kOk);
        done = true;
      });
    });
    while (!done && eng.step()) {
    }
    ASSERT_TRUE(done);
  }
  eng.run();

  qos::CpuScheduler* sched = cluster.compute(0).stack().scheduler();
  ASSERT_NE(sched, nullptr);
  const std::uint64_t fg_before = sched->served_ns(SloClass::kGuaranteed);
  const std::uint64_t bg_before = sched->served_ns(SloClass::kBestEffort);
  EXPECT_GT(fg_before, 0u);  // foreground ran under the contract

  // Lose a fragment holder (belief-only, so the real server still answers
  // the reconstruction reads) and let the rebuild storm drain.
  const auto frags = cluster.segments().ec_fragments(vd, 0);
  cluster.compute(0).maintenance()->force_server_down(frags[0].block_server);
  eng.run();
  EXPECT_GT(cluster.compute(0).maintenance()->stats().segments_rebuilt, 0u);
  // The rebuild consumed best-effort service time only: the guaranteed
  // class served not one extra nanosecond.
  EXPECT_GT(sched->served_ns(SloClass::kBestEffort), bg_before);
  EXPECT_EQ(sched->served_ns(SloClass::kGuaranteed), fg_before);
}

// An EC fleet under QoS with a mid-run fragment-holder outage (rebuild
// storm + admission + WFQ) is bit-identical across worker-thread counts:
// threads are a speed knob, never a schedule input.
TEST(QosEc, RebuildStormDeterministicAcrossThreads) {
  auto config = [](int threads) {
    chaos::HarnessConfig cfg;
    cfg.spec.stack = ebs::StackKind::kSolar;
    cfg.spec.seed = 19;
    cfg.active = ms(300);
    cfg.spec.workload.max_ios = 120;
    cfg.spec.workload.poisson_iops = 800.0;
    cfg.readback_samples = 16;
    cfg.spec.ec.enabled = true;
    cfg.spec.ec.k = 2;
    cfg.spec.ec.m = 1;
    cfg.spec.qos.enabled = true;
    cfg.spec.qos.sched_enabled = true;
    SloSpec slo;
    slo.cls = SloClass::kGuaranteed;
    slo.target_p99 = ms(5);
    slo.guaranteed_iops = 200.0;
    slo_on_every_vd(&cfg.spec, slo);
    chaos::FaultEvent e;
    e.at = ms(50);
    e.duration = ms(150);
    e.kind = chaos::FaultKind::kDeviceStop;
    e.target.kind = chaos::TargetKind::kStorageNic;
    e.target.index = 1;
    cfg.plan.name = "qos-ec-rebuild-storm";
    cfg.plan.events.push_back(e);
    cfg.spec.shards = 2;
    cfg.spec.threads = threads;
    return cfg;
  };
  const chaos::RunReport t1 = chaos::run_chaos(config(1));
  ASSERT_TRUE(t1.ok()) << t1.violations.front().oracle << ": "
                       << t1.violations.front().detail;
  for (const int threads : {2, 8}) {
    EXPECT_EQ(t1.signature(), chaos::run_chaos(config(threads)).signature())
        << "threads=" << threads;
  }
}

// A rejection-storm run is itself deterministic (same signature twice).
TEST(QosChaos, RejectionStormDeterministic) {
  chaos::HarnessConfig cfg;
  cfg.spec.stack = ebs::StackKind::kSolar;
  cfg.spec.seed = 11;
  cfg.spec.workload.poisson_iops = 20000.0;
  cfg.dpu_cpu_cores = 1;
  cfg.solar_cpu_per_rpc = us(100);
  cfg.spec.workload.max_ios = 50;
  cfg.active = ms(100);
  cfg.spec.qos.enabled = true;
  cfg.spec.qos.early_reject = true;
  cfg.spec.qos.headroom = 0.8;
  SloSpec slo;
  slo.target_p99 = ms(2);
  slo.cls = SloClass::kBestEffort;
  slo_on_every_vd(&cfg.spec, slo);

  const chaos::RunReport a = chaos::run_chaos(cfg);
  const chaos::RunReport b = chaos::run_chaos(cfg);
  EXPECT_EQ(a.signature(), b.signature());
  EXPECT_TRUE(a.ok());
}

}  // namespace
}  // namespace repro::qos
