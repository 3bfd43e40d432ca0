// Whole-run determinism of the timer-wheel engine under a mixed load:
// a SOLAR cluster and a TCP (Luna) cluster sharing one engine, with a
// concurrent stream of timer schedule/cancel churn. Two runs with the
// same seed must execute the same number of events and end at the same
// simulated instant — the FIFO tie-break at equal timestamps is what
// makes this hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"
#include "ebs/cluster.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "sim/engine.h"
#include "sim/shard_context.h"
#include "sim/sharded.h"
#include "workload/fio.h"

namespace repro::ebs {
namespace {

using transport::IoRequest;

ClusterParams mixed_params(StackKind stack, std::uint64_t seed) {
  ClusterParams p;
  p.topo.compute_servers = 2;
  p.topo.storage_servers = 4;
  p.topo.servers_per_rack = 4;
  p.stack = stack;
  p.seed = seed;
  p.block_server.store_payload = false;
  return p;
}

struct RunSig {
  std::uint64_t executed = 0;
  TimeNs end_time = 0;
  std::uint64_t solar_done = 0;
  std::uint64_t tcp_done = 0;
  std::uint64_t cancels_hit = 0;
  // Latency-histogram fingerprint: any observability-induced perturbation
  // of the simulation shows up here even if event counts happen to match.
  std::uint64_t lat_count = 0;
  TimeNs lat_max = 0;
  double lat_mean = 0.0;

  bool operator==(const RunSig&) const = default;
};

// Schedules bursts of dummy timers and cancels a pseudo-random subset —
// exercising the cancel path concurrently with real protocol traffic.
struct CancelChurn {
  sim::Engine& eng;
  Rng rng;
  std::uint64_t cancels = 0;
  int rounds_left = 50;

  void round() {
    std::vector<sim::TimerId> ids;
    for (int i = 0; i < 20; ++i) {
      const TimeNs t = eng.now() + static_cast<TimeNs>(rng.next_below(static_cast<std::uint64_t>(us(50))));
      ids.push_back(eng.schedule_at(t, [] {}));
    }
    for (auto id : ids) {
      if (rng.next_below(2) == 0 && eng.cancel(id)) ++cancels;
    }
    if (--rounds_left > 0) {
      eng.after(us(30), [this] { round(); });
    }
  }
};

RunSig run_mixed(std::uint64_t seed, obs::Obs* obs = nullptr) {
  sim::Engine eng;
  ClusterParams solar_params = mixed_params(StackKind::kSolar, seed);
  ClusterParams tcp_params = mixed_params(StackKind::kLuna, seed + 17);
  solar_params.obs = obs;
  Cluster solar(eng, solar_params);
  Cluster tcp(eng, tcp_params);
  if (obs != nullptr) obs->attach(eng);
  const std::uint64_t vd_solar = solar.create_vd(1ull << 30);
  const std::uint64_t vd_tcp = tcp.create_vd(1ull << 30);

  workload::FioConfig cfg;
  cfg.iodepth = 4;
  cfg.read_fraction = 0.5;
  cfg.max_ios = 200;

  cfg.vd_id = vd_solar;
  workload::FioJob job_solar(
      eng,
      [&](IoRequest io, transport::IoCompleteFn done) {
        solar.compute(0).submit_io(std::move(io), std::move(done));
      },
      cfg, Rng(seed));
  cfg.vd_id = vd_tcp;
  workload::FioJob job_tcp(
      eng,
      [&](IoRequest io, transport::IoCompleteFn done) {
        tcp.compute(1).submit_io(std::move(io), std::move(done));
      },
      cfg, Rng(seed + 1));

  CancelChurn churn{eng, Rng(seed + 2)};
  eng.at(0, [&] {
    job_solar.start();
    job_tcp.start();
    churn.round();
  });
  eng.run();

  RunSig sig;
  sig.executed = eng.executed();
  sig.end_time = eng.now();
  sig.solar_done = job_solar.completed();
  sig.tcp_done = job_tcp.completed();
  sig.cancels_hit = churn.cancels;
  const Histogram& lat = job_solar.metrics().total();
  sig.lat_count = lat.count() + job_tcp.metrics().total().count();
  sig.lat_max = std::max(lat.max(), job_tcp.metrics().total().max());
  sig.lat_mean = lat.mean() + job_tcp.metrics().total().mean();
  return sig;
}

TEST(Determinism, MixedStacksWithCancellationAreBitIdentical) {
  const RunSig a = run_mixed(4242);
  const RunSig b = run_mixed(4242);
  EXPECT_EQ(a.solar_done, 200u);
  EXPECT_EQ(a.tcp_done, 200u);
  EXPECT_GT(a.cancels_hit, 0u);
  EXPECT_EQ(a.executed, b.executed);  // identical event counts
  EXPECT_EQ(a.end_time, b.end_time);  // identical final clock
  EXPECT_EQ(a.solar_done, b.solar_done);
  EXPECT_EQ(a.tcp_done, b.tcp_done);
  EXPECT_EQ(a.cancels_hit, b.cancels_hit);
}

// The observability invariant: a fully-instrumented run (registry, tracer,
// time-series sampler attached to the engine) must be bit-identical to a
// dark run — same events, same final clock, same latency histograms. The
// sampler rides the engine's probe hook, which fires during clock
// advancement without being an event; spans and counters never schedule.
TEST(Determinism, ObservabilityOnVsOffIsBitIdentical) {
  const RunSig dark = run_mixed(4242);

  obs::ObsConfig oc;
  oc.sample_interval = us(20);  // aggressive sampling to maximize exposure
  obs::Obs obs(oc);
  const RunSig lit = run_mixed(4242, &obs);

  EXPECT_EQ(dark, lit);
  // And the instrumentation actually ran: samples were taken and spans
  // recorded, so the equality above is not vacuous.
  EXPECT_GT(obs.sampler().samples_taken(), 0u);
  EXPECT_GT(obs.tracer().total_recorded(), 0u);
}

TEST(Determinism, DifferentSeedsProduceDifferentSchedules) {
  const RunSig a = run_mixed(1);
  const RunSig b = run_mixed(2);
  // Sanity that the signature is sensitive enough to catch divergence.
  EXPECT_NE(a.executed, b.executed);
}

// 16-seed chaos sweep: for each seed, generate a fault plan, run the full
// chaos harness instrumented (registry + tracer + sampler attached) and
// dark, and demand bit-identical signatures. This extends the
// observability invariant to runs with active fault injection — the
// injector's apply/revert timers, the NIC FCS drops, duplicated and
// reordered packets, SSD stalls, all of it must stay on the deterministic
// schedule whether or not anyone is watching.
TEST(Determinism, ChaosSweepInstrumentedVsDarkAcrossSixteenSeeds) {
  const ebs::StackKind stacks[] = {
      ebs::StackKind::kKernelTcp,
      ebs::StackKind::kLuna,
      ebs::StackKind::kSolarStar,
      ebs::StackKind::kSolar,
  };
  std::uint64_t total_faults = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    chaos::HarnessConfig cfg;
    cfg.spec.stack = stacks[seed % 4];
    cfg.spec.seed = seed * 7919;
    cfg.active = ms(250);
    cfg.spec.workload.poisson_iops = 900.0;
    cfg.readback_samples = 12;

    Rng plan_rng(seed);
    chaos::GeneratorConfig gc;
    gc.window = ms(200);
    chaos::TopologyShape shape;
    shape.compute_nodes = cfg.spec.compute_nodes;
    shape.storage_nodes = cfg.spec.storage_nodes;
    shape.compute_tors = 2;
    shape.storage_tors = 4;
    shape.compute_spines = 2;
    shape.storage_spines = 2;
    shape.cores = 2;
    shape.replica_ssds = 3;
    shape.has_fpga = cfg.spec.stack == ebs::StackKind::kSolar;
    cfg.plan = chaos::generate_plan(plan_rng, gc, shape);

    const chaos::RunReport dark = chaos::run_chaos(cfg);

    obs::ObsConfig oc;
    oc.sample_interval = us(20);
    obs::Obs obs(oc);
    chaos::HarnessConfig lit_cfg = cfg;
    lit_cfg.obs = &obs;
    const chaos::RunReport lit = chaos::run_chaos(lit_cfg);

    EXPECT_EQ(dark.signature(), lit.signature()) << "seed " << seed;
    EXPECT_GT(obs.sampler().samples_taken(), 0u) << "seed " << seed;
    total_faults += dark.faults_applied;
  }
  // The sweep must actually have injected faults, or the equality above
  // says nothing about chaos determinism.
  EXPECT_GT(total_faults, 0u);
}

// A SOLAR cluster on the sharded engine: four compute + eight storage
// servers across four shards, one fio job per compute node. The signature
// must be a function of (seed, shards) only — re-running with 2 or 8 worker
// threads re-times the wall clock, never the simulation.
struct ObsExports {
  std::string metrics, trace, series;
};

// `exports`, when given with `obs`, receives the serialized artifacts —
// written while the cluster is alive, since registry entries read live
// node state.
RunSig run_sharded(std::uint64_t seed, int threads, obs::Obs* obs = nullptr,
                   ObsExports* exports = nullptr) {
  sim::ShardedEngine se(4, threads);
  ClusterParams p;
  p.topo.compute_servers = 4;
  p.topo.storage_servers = 8;
  p.topo.servers_per_rack = 2;
  p.stack = StackKind::kSolar;
  p.seed = seed;
  p.block_server.store_payload = false;
  p.obs = obs;
  Cluster cluster(se, p);
  if (obs != nullptr) obs->attach(se);

  std::vector<std::uint64_t> vds;
  for (int i = 0; i < 4; ++i) vds.push_back(cluster.create_vd(1ull << 30));

  workload::FioConfig cfg;
  cfg.iodepth = 4;
  cfg.read_fraction = 0.5;
  cfg.max_ios = 150;
  std::vector<std::unique_ptr<workload::FioJob>> jobs;
  Rng rng(seed);
  for (int i = 0; i < 4; ++i) {
    cfg.vd_id = vds[static_cast<std::size_t>(i)];
    sim::ShardScope scope(cluster.compute_shard(i));
    jobs.push_back(std::make_unique<workload::FioJob>(
        cluster.engine(),
        [&cluster, i](IoRequest io, transport::IoCompleteFn done) {
          cluster.compute(i).submit_io(std::move(io), std::move(done));
        },
        cfg, rng.fork(static_cast<std::uint64_t>(i))));
  }
  for (int i = 0; i < 4; ++i) {
    sim::ShardScope scope(cluster.compute_shard(i));
    cluster.engine().at(0, [&jobs, i] {
      jobs[static_cast<std::size_t>(i)]->start();
    });
  }
  se.run();

  if (obs != nullptr && exports != nullptr) {
    std::ostringstream m, t, s;
    obs::write_metrics_json(m, obs->registry());
    obs::write_chrome_trace(t, obs->tracer());
    obs::write_series_json(s, obs->registry(), obs->sampler());
    exports->metrics = m.str();
    exports->trace = t.str();
    exports->series = s.str();
  }

  RunSig sig;
  sig.executed = se.executed();
  sig.end_time = se.now();
  for (const auto& j : jobs) {
    sig.solar_done += j->completed();
    const Histogram& lat = j->metrics().total();
    sig.lat_count += lat.count();
    sig.lat_max = std::max(sig.lat_max, lat.max());
    sig.lat_mean += lat.mean();
  }
  return sig;
}

TEST(Determinism, ShardedClusterBitIdenticalAcrossThreadCounts) {
  const RunSig t1 = run_sharded(9001, 1);
  const RunSig t2 = run_sharded(9001, 2);
  const RunSig t8 = run_sharded(9001, 8);
  EXPECT_EQ(t1.solar_done, 600u);  // 4 jobs x max_ios
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

// Observability on the sharded engine: the sampler rides the epoch-barrier
// hook and the tracer writes per-shard rings merged on export, so a fully-
// instrumented run must be bit-identical to a dark one — and the exported
// artifacts themselves (metrics JSON, Chrome/Perfetto trace, time series)
// must be byte-identical across thread counts.
TEST(Determinism, ShardedObservabilityIsEffectFreeAndThreadInvariant) {
  const RunSig dark = run_sharded(9001, 2);

  struct Lit {
    RunSig sig;
    std::uint64_t samples = 0;
    ObsExports out;
  };
  auto lit = [](int threads) {
    obs::ObsConfig oc;
    oc.sample_interval = us(20);
    auto obs = std::make_unique<obs::Obs>(oc);
    Lit e;
    e.sig = run_sharded(9001, threads, obs.get(), &e.out);
    e.samples = obs->sampler().samples_taken();
    return e;
  };
  const Lit a = lit(1);
  const Lit b = lit(2);

  EXPECT_EQ(dark, a.sig);
  EXPECT_EQ(dark, b.sig);
  EXPECT_EQ(a.out.metrics, b.out.metrics);
  EXPECT_EQ(a.out.trace, b.out.trace);
  EXPECT_EQ(a.out.series, b.out.series);
  EXPECT_GT(a.samples, 0u);
  EXPECT_GT(a.out.trace.size(), 100u);  // spans actually exported
}

// Chaos on the sharded engine: same plan, same seed, shards = 2, swept at
// 1, 2 and 8 worker threads. Fault-injection timers are armed on each
// target's home shard and the oracle boards are node-affine, so the full
// report signature — violations, completions, fault counts, executed
// events, final clock — must not move with the thread count.
TEST(Determinism, ShardedChaosSignatureThreadCountInvariant) {
  chaos::HarnessConfig cfg;
  cfg.spec.stack = ebs::StackKind::kSolar;
  cfg.spec.seed = 31337;
  cfg.active = ms(250);
  cfg.spec.workload.poisson_iops = 900.0;
  cfg.readback_samples = 12;
  cfg.spec.shards = 2;

  Rng plan_rng(7);
  chaos::GeneratorConfig gc;
  gc.window = ms(200);
  chaos::TopologyShape shape;
  shape.compute_nodes = cfg.spec.compute_nodes;
  shape.storage_nodes = cfg.spec.storage_nodes;
  shape.compute_tors = 2;
  shape.storage_tors = 4;
  shape.compute_spines = 2;
  shape.storage_spines = 2;
  shape.cores = 2;
  shape.replica_ssds = 3;
  shape.has_fpga = true;
  cfg.plan = chaos::generate_plan(plan_rng, gc, shape);

  cfg.spec.threads = 1;
  const chaos::RunReport t1 = chaos::run_chaos(cfg);
  cfg.spec.threads = 2;
  const chaos::RunReport t2 = chaos::run_chaos(cfg);
  cfg.spec.threads = 8;
  const chaos::RunReport t8 = chaos::run_chaos(cfg);

  EXPECT_EQ(t1.signature(), t2.signature());
  EXPECT_EQ(t1.signature(), t8.signature());
  EXPECT_GT(t1.faults_applied, 0u);
  EXPECT_GT(t1.ios_completed, 0u);
}

}  // namespace
}  // namespace repro::ebs
