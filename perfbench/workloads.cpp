#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "chaos/ec_oracle.h"
#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "chaos/oracle.h"
#include "common/crc32.h"
#include "ebs/scenario.h"
#include "net/switch.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "placement/policy.h"
#include "workload/fio.h"

namespace perfbench {

namespace {

using repro::TimeNs;
using repro::ms;
using repro::us;
using repro::transport::IoCompleteFn;
using repro::transport::IoRequest;
using repro::transport::IoResult;
using repro::transport::StorageStatus;
namespace ebs = repro::ebs;
namespace sim = repro::sim;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xFF51AFD7ED558CCDull;
}

// The simulated testbed (placement, fabric and device randomness) is the
// same for every run; the benchmark seed drives the guest I/O streams.
constexpr std::uint64_t kClusterSeed = 42;

// Simulated latency histogram: four buckets per power of two of ns.
constexpr int kLatBuckets = 256;

int lat_bucket(TimeNs ns) {
  if (ns < 4) return ns <= 0 ? 0 : static_cast<int>(ns);
  const auto v = static_cast<std::uint64_t>(ns);
  const int log2 = 63 - __builtin_clzll(v);
  return log2 * 4 + static_cast<int>((v >> (log2 - 2)) & 3);
}

double bucket_floor_us(int b) {
  if (b < 8) return b * 1e-3;
  const int log2 = b / 4;
  const double base = static_cast<double>(1ull << log2);
  return (base + base / 4.0 * (b % 4)) * 1e-3;
}

/// One compute node's guest I/O bookkeeping. Only the node's home shard
/// touches it, so sharded workers never share a line.
struct alignas(64) NodeTally {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t blocks = 0;  ///< 4 KiB blocks of I/Os completed OK
  std::array<std::uint64_t, 5> status{};
  std::array<std::uint64_t, kLatBuckets> latency{};
  std::uint64_t submit_calls = 0;
  std::int64_t submit_ns = 0;
  bool in_submit = false;
};

/// A built scenario plus the benchmark's timing and guest bookkeeping.
/// The build mirrors `ebs::build_scenario` (params_from -> engine ->
/// Cluster -> create_vd per VdSpec) so the benchmark can time the cluster
/// build and the VD creation apart and apply knobs a ScenarioSpec does not
/// carry (DPU cores, SOLAR per-RPC cost, fabric propagation).
class Rig {
 public:
  using Tune = std::function<void(ebs::ClusterParams&)>;

  Rig(const ebs::ScenarioSpec& spec, const RepOptions& opt, const Tune& tune,
      RepResult& out)
      : out_(out), traced_(opt.traced) {
    const double t0 = wall_now();
    ebs::ClusterParams p = ebs::params_from(spec);
    if (tune) tune(p);
    if (opt.traced) {
      repro::obs::ObsConfig oc;
      oc.sample_interval = ms(1);
      obs_ = std::make_unique<repro::obs::Obs>(oc);
      p.obs = obs_.get();
    }
    if (spec.shards > 1) {
      out.threads = opt.threads > 0 ? opt.threads : spec.threads;
      sharded_ = std::make_unique<sim::ShardedEngine>(spec.shards, out.threads);
      cluster_ = std::make_unique<ebs::Cluster>(*sharded_, std::move(p));
      if (obs_) obs_->attach(*sharded_);
    } else {
      engine_ = std::make_unique<sim::Engine>();
      cluster_ = std::make_unique<ebs::Cluster>(*engine_, std::move(p));
      if (obs_) obs_->attach(*engine_);
    }
    const double t1 = wall_now();
    vds_.reserve(spec.vds.size());
    for (const ebs::VdSpec& vd : spec.vds) {
      const std::uint64_t id = cluster_->create_vd(vd.size_bytes);
      if (vd.has_qos) cluster_->set_qos(id, vd.qos);
      if (vd.has_slo) cluster_->set_slo(id, vd.slo);
      vds_.push_back(id);
    }
    const double t2 = wall_now();
    out.build_s = t1 - t0;
    out.create_vd_s = t2 - t1;
    tally_.resize(static_cast<std::size_t>(cluster_->num_compute()));
  }

  ebs::Cluster& cluster() { return *cluster_; }
  const std::vector<std::uint64_t>& vds() const { return vds_; }
  sim::Engine* engine() { return engine_.get(); }
  void set_oracle(repro::chaos::OracleBoard* oracle) { oracle_ = oracle; }

  /// Guest submit path of compute node `node`: bookkeeping, the optional
  /// durability oracle and, when traced, host timing around
  /// `ComputeNode::submit_io`.
  /// `count = false` keeps set-up traffic (prefill) out of the tallies.
  repro::workload::SubmitFn guest_submit(int node, bool count = true) {
    return [this, node, count](IoRequest io, IoCompleteFn done) {
      NodeTally& t = tally_[static_cast<std::size_t>(node)];
      if (count) ++t.issued;
      const TimeNs issued_at = io.issued_at;
      const std::uint64_t oid =
          oracle_ != nullptr ? oracle_->on_submit(io, issued_at) : 0;
      const std::uint32_t blocks = (io.len + 4095) / 4096;
      IoCompleteFn wrapped = [this, node, count, issued_at, oid, blocks,
                              done = std::move(done)](IoResult res) {
        const TimeNs now = cluster_->engine().now();
        if (count) {
          NodeTally& t = tally_[static_cast<std::size_t>(node)];
          ++t.completed;
          if (res.status == StorageStatus::kOk) t.blocks += blocks;
          ++t.status[std::min<std::size_t>(
              static_cast<std::size_t>(res.status), 4)];
          ++t.latency[static_cast<std::size_t>(lat_bucket(now - issued_at))];
        }
        if (oracle_ != nullptr) oracle_->on_complete(oid, res, now);
        done(std::move(res));
      };
      ebs::ComputeNode& cn = cluster_->compute(node);
      if (!traced_ || !count || t.in_submit) {
        cn.submit_io(std::move(io), std::move(wrapped));
        return;
      }
      t.in_submit = true;
      const auto a = std::chrono::steady_clock::now();
      cn.submit_io(std::move(io), std::move(wrapped));
      const auto b = std::chrono::steady_clock::now();
      t.in_submit = false;
      t.submit_ns +=
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
      ++t.submit_calls;
    };
  }

  /// Runs `fn` at the current instant on compute node `node`'s home engine.
  void at_node(int node, sim::Callback fn) {
    sim::ShardScope scope(cluster_->compute_shard(node));
    sim::Engine& e = cluster_->engine();
    e.at(e.now(), std::move(fn));
  }

  void run_until(TimeNs t) {
    if (sharded_) {
      sharded_->run_until(t);
    } else {
      engine_->run_until(t);
    }
  }
  void run() {
    if (sharded_) {
      sharded_->run();
    } else {
      engine_->run();
    }
  }
  TimeNs now() const { return cluster_->now(); }
  std::uint64_t executed() const {
    return sharded_ ? sharded_->executed() : engine_->executed();
  }

  void begin_run() {
    run_wall_ = wall_now();
    run_cpu_ = cpu_now();
  }
  /// End of the measured window: snapshots the gauges a drain would zero.
  void end_window() {
    for (int i = 0; i < cluster_->num_storage(); ++i) {
      ssd_backlog_ += static_cast<std::uint64_t>(
          cluster_->storage(i).block_server().ssd_queue_backlog());
    }
  }
  void end_run() {
    out_.run_s = wall_now() - run_wall_;
    out_.run_cpu_s = cpu_now() - run_cpu_;
    executed_ = executed();
    end_time_ = now();
  }

  /// Collects counters, basic guest checks and the fingerprint.
  void finish();
  /// Records what the traced run saw (spans, export cost).
  void finish_traced();
  void teardown() {
    const double t0 = wall_now();
    cluster_.reset();
    engine_.reset();
    sharded_.reset();
    out_.teardown_s = wall_now() - t0;
  }

  void fail(std::string what) { out_.errors.push_back(std::move(what)); }
  std::uint64_t guest_status(StorageStatus s) const {
    std::uint64_t n = 0;
    for (const NodeTally& t : tally_) n += t.status[static_cast<std::size_t>(s)];
    return n;
  }

 private:
  RepResult& out_;
  bool traced_;
  std::unique_ptr<repro::obs::Obs> obs_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<sim::ShardedEngine> sharded_;
  std::unique_ptr<ebs::Cluster> cluster_;
  std::vector<std::uint64_t> vds_;
  std::vector<NodeTally> tally_;
  repro::chaos::OracleBoard* oracle_ = nullptr;
  double run_wall_ = 0.0;
  double run_cpu_ = 0.0;
  std::uint64_t executed_ = 0;
  TimeNs end_time_ = 0;
  std::uint64_t ssd_backlog_ = 0;
};

void Rig::finish() {
  ebs::Cluster& c = *cluster_;
  std::uint64_t fwd = 0, rehash = 0;
  for (const auto& dev : c.network().devices()) {
    if (const auto* sw = dynamic_cast<const repro::net::Switch*>(dev.get())) {
      fwd += sw->forwarded();
      rehash += sw->ecmp_rehashes();
    }
  }
  std::uint64_t msgs = 0, retx = 0, tmo = 0;
  std::uint64_t solar_pkts = 0, solar_retx = 0, redraws = 0;
  std::uint64_t sa_ios = 0, split = 0, busy = 0, pcie = 0;
  std::uint64_t sub_ios = 0, degraded = 0, parity = 0, reconstructs = 0;
  std::uint64_t rebuilt = 0, repair_fail = 0;
  std::uint64_t admitted = 0, rejected = 0, slo_ok = 0, slo_bad = 0;
  for (int i = 0; i < c.num_compute(); ++i) {
    ebs::ComputeNode& n = c.compute(i);
    if (const auto* tcp = n.tcp()) {
      msgs += tcp->messages_delivered();
      retx += tcp->retransmits();
      tmo += tcp->timeouts();
    }
    if (const auto* s = n.solar()) {
      solar_pkts += s->stats().data_pkts_tx;
      solar_retx += s->stats().retransmits;
      redraws += s->stats().path_redraws;
      sa_ios += s->stats().ios;  // SOLAR fuses the SA into the DPU client
    }
    if (const auto* a = n.agent()) {
      sa_ios += a->stats().ios;
      split += a->stats().split_ios;
    }
    if (auto* d = n.dpu()) {
      busy += static_cast<std::uint64_t>(d->cpu().total_busy_ns());
      pcie += d->internal_pcie().bytes_transferred();
    }
    if (const auto* e = n.ec()) {
      sub_ios += e->stats().sub_ios;
      degraded += e->stats().degraded_reads;
      parity += e->stats().parity_updates;
      reconstructs += e->stats().reconstructs;
    }
    if (const auto* m = n.maintenance()) {
      rebuilt += m->stats().cells_rebuilt;
      repair_fail += m->stats().repair_failures;
    }
    if (const auto* q = n.admission()) {
      for (int k = 0; k < repro::qos::kSloClasses; ++k) {
        admitted += q->stats().admitted[k];
        rejected += q->stats().rejected[k];
        slo_ok += q->stats().slo_ok[k];
        slo_bad += q->stats().slo_violated[k];
      }
    }
  }
  std::uint64_t ssd_ops = 0, crc_fail = 0;
  for (int i = 0; i < c.num_storage(); ++i) {
    ssd_ops += c.storage(i).block_server().ssd_ops();
    crc_fail += c.storage(i).block_server().crc_failures();
  }

  std::uint64_t issued = 0, completed = 0, blocks = 0, ok = 0;
  std::array<std::uint64_t, kLatBuckets> lat{};
  for (const NodeTally& t : tally_) {
    issued += t.issued;
    completed += t.completed;
    blocks += t.blocks;
    ok += t.status[0];
    for (int b = 0; b < kLatBuckets; ++b) lat[b] += t.latency[b];
    out_.submit_calls += t.submit_calls;
    out_.submit_s += static_cast<double>(t.submit_ns) * 1e-9;
  }
  out_.run_blocks = blocks;
  out_.attempted = issued;
  out_.ok = ok;
  out_.counters = {
      {"sim.events", executed_},
      {"sim.end_time_ns", static_cast<std::uint64_t>(end_time_)},
      {"guest.issued", issued},
      {"guest.completed", completed},
      {"guest.blocks", blocks},
      {"guest.ok", ok},
      {"net.pkts_forwarded", fwd},
      {"net.drops", c.network().drops_total().total()},
      {"net.ecmp_rehashes", rehash},
      {"transport.msgs", msgs},
      {"transport.retransmits", retx},
      {"transport.timeouts", tmo},
      {"solar.data_pkts_tx", solar_pkts},
      {"solar.retransmits", solar_retx},
      {"solar.path_redraws", redraws},
      {"sa.ios", sa_ios},
      {"sa.split_ios", split},
      {"dpu.cpu.busy_ns", busy},
      {"dpu.pcie.bytes", pcie},
      {"storage.ssd_ops", ssd_ops},
      {"storage.ssd_queue_backlog_ns", ssd_backlog_},
      {"storage.crc_failures", crc_fail},
      {"ec.sub_ios", sub_ios},
      {"ec.degraded_reads", degraded},
      {"ec.parity_updates", parity},
      {"ec.reconstructs", reconstructs},
      {"ec.cells_rebuilt", rebuilt},
      {"ec.repair_failures", repair_fail},
      {"qos.admitted", admitted},
      {"qos.rejected", rejected},
      {"qos.slo_ok", slo_ok},
      {"qos.slo_violated", slo_bad},
      // Filled in by the EC workloads' post-quiesce read-back.
      {"ec.readback_cells", 0},
      {"ec.readback_lost", 0},
  };

  std::uint64_t h = mix(executed_, static_cast<std::uint64_t>(end_time_));
  for (const NodeTally& t : tally_) {
    h = mix(h, t.issued);
    h = mix(h, t.completed);
    for (const std::uint64_t s : t.status) h = mix(h, s);
  }
  for (const std::uint64_t v : lat) h = mix(h, v);
  for (const auto& kv : out_.counters) h = mix(h, kv.second);
  out_.fingerprint = h;

  // Percentiles of the merged histogram (bucket floor).
  auto pct = [&lat, completed](double q) {
    const auto want = static_cast<std::uint64_t>(
        q * static_cast<double>(completed));
    std::uint64_t seen = 0;
    for (int b = 0; b < kLatBuckets; ++b) {
      seen += lat[b];
      if (seen > want) return bucket_floor_us(b);
    }
    return 0.0;
  };
  out_.sim_p50_us = pct(0.5);
  out_.sim_p99_us = pct(0.99);

  if (completed != issued) {
    fail("guest I/Os: " + std::to_string(issued) + " submitted but " +
         std::to_string(completed) + " completed after drain");
  }
  if (issued == 0) fail("no guest I/O was submitted");
}

void Rig::finish_traced() {
  if (!obs_) return;
  const repro::obs::Tracer& tr = obs_->tracer();
  out_.spans = tr.total_recorded();
  // Self time = duration minus the children's durations, per span name.
  std::unordered_map<std::uint64_t, TimeNs> child_sum;
  tr.for_each([&](const repro::obs::SpanRecord& s) {
    if (s.parent != 0) child_sum[s.parent] += s.t1 - s.t0;
  });
  std::map<std::string, std::vector<TimeNs>> self;
  for (const std::string& name : reported_spans()) self[name];
  tr.for_each([&](const repro::obs::SpanRecord& s) {
    auto it = self.find(s.name);
    if (it == self.end()) return;
    const auto c = child_sum.find(s.id);
    const TimeNs own = (s.t1 - s.t0) - (c == child_sum.end() ? 0 : c->second);
    it->second.push_back(std::max<TimeNs>(0, own));
  });
  for (auto& [name, v] : self) {
    double p50 = 0.0;
    if (!v.empty()) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      p50 = static_cast<double>(v[v.size() / 2]) * 1e-3;
    }
    out_.span_self_us_p50[name] = p50;
  }
  const double t0 = wall_now();
  std::ostringstream trace, metrics;
  repro::obs::write_chrome_trace(trace, tr);
  repro::obs::write_metrics_json(metrics, obs_->registry());
  out_.export_s = wall_now() - t0;
}

// ---------------------------------------------------------------------------
// mixed_fio: the four stack generations on one fabric, closed-loop fio.

constexpr TimeNs kMixedWindow = ms(30);

ebs::ScenarioSpec mixed_fio_spec() {
  ebs::ScenarioSpec s;
  s.name = "mixed_fio";
  s.compute_nodes = 4;
  s.storage_nodes = 16;
  s.servers_per_rack = 8;
  s.compute_stacks = {ebs::StackKind::kKernelTcp, ebs::StackKind::kLuna,
                      ebs::StackKind::kRdma, ebs::StackKind::kSolar};
  s.seed = kClusterSeed;
  for (int i = 0; i < s.compute_nodes; ++i) {
    ebs::VdSpec vd;
    vd.size_bytes = 1ull << 30;
    s.vds.push_back(vd);
  }
  s.workload.block_size = 0;  // the Fig. 5 size mix
  s.workload.iodepth = 32;
  s.workload.read_fraction = 0.7;
  return s;
}

void run_mixed_fio(const RepOptions& opt, RepResult& r) {
  const ebs::ScenarioSpec spec = mixed_fio_spec();
  Rig rig(spec, opt, nullptr, r);
  ebs::Cluster& c = rig.cluster();
  repro::Rng rng(opt.seed ^ 0xF10F10ull);
  std::vector<std::unique_ptr<repro::workload::FioJob>> jobs;
  for (int i = 0; i < c.num_compute(); ++i) {
    repro::workload::FioConfig fc;
    fc.vd_id = rig.vds()[static_cast<std::size_t>(i)];
    fc.vd_size = spec.vds[static_cast<std::size_t>(i)].size_bytes;
    fc.block_size = spec.workload.block_size;
    fc.iodepth = spec.workload.iodepth;
    fc.read_fraction = spec.workload.read_fraction;
    jobs.push_back(std::make_unique<repro::workload::FioJob>(
        *rig.engine(), rig.guest_submit(i), fc,
        rng.fork(static_cast<std::uint64_t>(i))));
  }
  rig.begin_run();
  rig.at_node(0, [&jobs] {
    for (auto& j : jobs) j->start();
  });
  rig.run_until(kMixedWindow);
  rig.end_window();
  for (auto& j : jobs) j->stop();
  rig.run();
  rig.end_run();
  rig.finish();
  if (r.ok != r.attempted) {
    rig.fail("mixed_fio: " + std::to_string(r.attempted - r.ok) +
             " I/Os failed on a fault-free fleet");
  }
  if (r.counter("sa.ios") != r.attempted) {
    rig.fail("mixed_fio: sa.ios " + std::to_string(r.counter("sa.ios")) +
             " != guest I/Os " + std::to_string(r.attempted));
  }
  rig.finish_traced();
  rig.teardown();
}

// ---------------------------------------------------------------------------
// ec_rmw and ec_repair: EC 4+2 over three racks with real payloads, 50 %
// read-modify-write load. ec_repair also fail-stops a fragment holder
// mid-run, so degraded reads and writes run beside the background rebuild.

constexpr std::uint64_t kEcRegion = 4ull << 20;  // bytes under test per VD
constexpr TimeNs kEcWindow = ms(60);
constexpr TimeNs kEcKillAt = ms(5);
constexpr TimeNs kEcOutage = ms(10);

ebs::ScenarioSpec ec_spec(const char* name) {
  ebs::ScenarioSpec s;
  s.name = name;
  s.compute_nodes = 2;
  s.storage_nodes = 9;
  s.servers_per_rack = 3;  // three storage racks
  s.stack = ebs::StackKind::kSolar;
  s.seed = kClusterSeed;
  s.store_payload = true;
  for (int i = 0; i < s.compute_nodes; ++i) {
    ebs::VdSpec vd;
    vd.size_bytes = 64ull << 20;
    s.vds.push_back(vd);
  }
  s.workload.read_fraction = 0.5;
  s.workload.real_payload = true;
  s.ec.enabled = true;
  s.ec.k = 4;
  s.ec.m = 2;
  s.placement.enabled = true;
  s.placement.policy = repro::placement::PolicyKind::kRackAwareSpread;
  return s;
}

void run_ec(const RepOptions& opt, RepResult& r, bool fail_stop) {
  const ebs::ScenarioSpec spec = ec_spec(fail_stop ? "ec_repair" : "ec_rmw");
  const std::string tag = spec.name + ": ";
  Rig rig(spec, opt, nullptr, r);
  ebs::Cluster& c = rig.cluster();
  sim::Engine& eng = *rig.engine();
  // In-run read checks are off: a read racing an in-flight write to the
  // same cell may legally return either value, which the board would flag.
  // Every acknowledged write is verified by the read-back at quiesce.
  repro::chaos::OracleConfig ocfg;
  ocfg.check_crc = false;
  repro::chaos::OracleBoard oracle(ocfg);
  rig.set_oracle(&oracle);
  repro::Rng rng(opt.seed ^ 0xEC0DEull);

  // Prefill: one sequential 64 KiB write pass over each VD's region.
  const double p0 = wall_now();
  std::vector<std::unique_ptr<repro::workload::FioJob>> fill;
  for (int i = 0; i < c.num_compute(); ++i) {
    repro::workload::FioConfig fc;
    fc.vd_id = rig.vds()[static_cast<std::size_t>(i)];
    fc.vd_size = kEcRegion;
    fc.block_size = 64 << 10;
    fc.iodepth = 8;
    fc.read_fraction = 0.0;
    fc.sequential = true;
    fc.real_payload = true;
    fc.max_ios = kEcRegion / fc.block_size;
    fill.push_back(std::make_unique<repro::workload::FioJob>(
        eng, rig.guest_submit(i, /*count=*/false), fc,
        rng.fork(100 + static_cast<std::uint64_t>(i))));
  }
  eng.at(eng.now(), [&fill] {
    for (auto& f : fill) f->start();
  });
  eng.run();
  r.prefill_s = wall_now() - p0;
  for (const auto& f : fill) {
    if (f->completed() != f->issued() || f->metrics().errors() != 0) {
      rig.fail(tag + "prefill did not complete cleanly");
    }
  }

  // Load: per node a 4 KiB and a 64 KiB closed-loop job, 50 % writes.
  std::vector<std::unique_ptr<repro::workload::FioJob>> jobs;
  for (int i = 0; i < c.num_compute(); ++i) {
    for (const std::uint32_t bs : {4u << 10, 64u << 10}) {
      repro::workload::FioConfig fc;
      fc.vd_id = rig.vds()[static_cast<std::size_t>(i)];
      fc.vd_size = kEcRegion;
      fc.block_size = bs;
      fc.iodepth = bs == 4096 ? 16 : 4;
      fc.read_fraction = spec.workload.read_fraction;
      fc.real_payload = spec.workload.real_payload;
      jobs.push_back(std::make_unique<repro::workload::FioJob>(
          eng, rig.guest_submit(i), fc,
          rng.fork(200 + jobs.size())));
    }
  }

  // ec_repair: fail-stop the holder of VD 1's first data fragment for
  // kEcOutage.
  repro::chaos::FaultPlan plan;
  plan.name = "ec_repair_fail_stop";
  repro::net::IpAddr victim = 0;
  if (fail_stop) {
    victim = c.segments().ec_fragments(rig.vds()[0], 0)[0].block_server;
    repro::chaos::FaultEvent ev;
    ev.at = kEcKillAt;
    ev.duration = kEcOutage;
    ev.kind = repro::chaos::FaultKind::kDeviceStop;
    ev.target.kind = repro::chaos::TargetKind::kStorageNic;
    for (int i = 0; i < c.num_storage(); ++i) {
      if (c.storage(i).nic().ip() == victim) ev.target.index = i;
    }
    plan.events.push_back(ev);
  }
  repro::chaos::Injector injector(c);

  rig.begin_run();
  const TimeNs start = eng.now();
  injector.arm(plan);
  eng.at(start, [&jobs] {
    for (auto& j : jobs) j->start();
  });
  if (fail_stop) {
    eng.at(start + kEcKillAt, [&c, victim] {
      for (int i = 0; i < c.num_compute(); ++i) {
        c.compute(i).ec()->mark_server(victim, false);
        c.compute(i).maintenance()->force_server_down(victim);
      }
    });
  }
  rig.run_until(start + kEcWindow);
  rig.end_window();
  for (auto& j : jobs) j->stop();
  injector.repair_all();
  oracle.set_repair_time(injector.last_repair_time());
  const TimeNs deadline = eng.now() + repro::seconds(10);
  while (eng.pending() > 0 && eng.now() < deadline) {
    eng.run_until(std::min(deadline, eng.now() + ms(50)));
  }
  rig.end_run();
  rig.finish();

  // Correctness: the rebuild ran and finished, every committed cell is
  // recoverable, and every acknowledged write reads back with its CRC.
  for (int i = 0; i < c.num_compute(); ++i) {
    if (!c.compute(i).maintenance()->idle()) {
      rig.fail(tag + "maintenance agent not idle at quiesce");
    }
  }
  if (fail_stop && r.counter("ec.cells_rebuilt") == 0) {
    rig.fail(tag + "the fail-stop triggered no rebuild");
  }
  for (const auto& v : repro::chaos::audit_ec_durability(c, {}, eng.now())) {
    rig.fail(tag + v.oracle + ": " + v.detail);
  }
  oracle.check_quiesce(eng, c.network(), injector.last_repair_time());
  std::uint64_t lost = 0;
  const auto cells =
      oracle.stable_cells(std::numeric_limits<std::size_t>::max());
  for (const auto& cell : cells) {
    const auto node = static_cast<int>(
        std::find(rig.vds().begin(), rig.vds().end(), cell.vd_id) -
        rig.vds().begin());
    IoRequest io;
    io.vd_id = cell.vd_id;
    io.op = repro::transport::OpType::kRead;
    io.offset = cell.lba;
    io.len = 4096;
    io.issued_at = eng.now();
    c.compute(node).submit_io(std::move(io), [&lost, cell](IoResult res) {
      const bool same =
          res.status == StorageStatus::kOk && res.read_data.size() == 1 &&
          res.read_data[0].has_payload() &&
          repro::crc32_raw(res.read_data[0].data) == cell.crc;
      if (!same) ++lost;
    });
  }
  eng.run();
  if (cells.empty()) rig.fail(tag + "no committed cell to read back");
  for (std::size_t i = 0; i < oracle.violations().size() && i < 3; ++i) {
    const auto& v = oracle.violations()[i];
    rig.fail(tag + v.oracle + ": " + v.detail);
  }
  // Each read-back is a guest read of an acknowledged write: one that does
  // not return the acknowledged bytes is a failed I/O and lost data.
  r.attempted += cells.size();
  r.ok += cells.size() - lost;
  for (auto& [name, value] : r.counters) {
    if (name == "ec.readback_cells") value = cells.size();
    if (name == "ec.readback_lost") value = lost;
  }
  r.fingerprint = mix(mix(r.fingerprint, cells.size()), lost);
  if (lost != 0) {
    rig.fail(tag + std::to_string(lost) + " of " +
             std::to_string(cells.size()) +
             " acknowledged cells read back different bytes");
  }
  rig.finish_traced();
  rig.set_oracle(nullptr);
  rig.teardown();
}

// ---------------------------------------------------------------------------
// tenant_overload: qos admission + WFQ under ~10x open-loop overload.

constexpr TimeNs kOverloadWindow = ms(1600);
constexpr int kOverloadVdsPerNode = 16;

ebs::ScenarioSpec tenant_overload_spec() {
  ebs::ScenarioSpec s;
  s.name = "tenant_overload";
  s.compute_nodes = 4;
  s.storage_nodes = 4;
  s.servers_per_rack = 2;
  s.stack = ebs::StackKind::kSolar;
  s.on_dpu = true;
  s.seed = kClusterSeed;
  for (int i = 0; i < s.compute_nodes; ++i) {
    for (int v = 0; v < kOverloadVdsPerNode; ++v) {
      ebs::VdSpec vd;
      vd.size_bytes = 256ull << 20;
      vd.has_slo = true;
      if (v < kOverloadVdsPerNode / 2) {
        vd.slo.cls = repro::qos::SloClass::kGuaranteed;
        vd.slo.target_p99 = ms(2);
        vd.slo.guaranteed_iops = 300.0;
      } else {
        vd.slo.cls = repro::qos::SloClass::kBestEffort;
        vd.slo.target_p99 = ms(4);
      }
      s.vds.push_back(vd);
    }
  }
  s.qos.enabled = true;
  s.qos.early_reject = true;
  s.qos.sched_enabled = true;
  s.qos.headroom = 0.8;
  return s;
}

void run_tenant_overload(const RepOptions& opt, RepResult& r) {
  const ebs::ScenarioSpec spec = tenant_overload_spec();
  // One fat-cost DPU core per node (~10 K IOPS) keeps 10x saturation cheap
  // to simulate; the offered load below is ~92 K IOPS per node.
  Rig rig(spec, opt,
          [](ebs::ClusterParams& p) {
            p.dpu.cpu_cores = 1;
            p.solar.cpu_per_rpc = us(100);
          },
          r);
  repro::Rng rng(opt.seed ^ 0x0DE7ull);
  std::vector<std::unique_ptr<repro::workload::PoissonLoad>> gens;
  for (std::size_t v = 0; v < rig.vds().size(); ++v) {
    const int node = static_cast<int>(v) / kOverloadVdsPerNode;
    repro::workload::PoissonConfig pc;
    pc.vd_id = rig.vds()[v];
    pc.vd_size = spec.vds[v].size_bytes;
    pc.iops = spec.vds[v].slo.cls == repro::qos::SloClass::kGuaranteed
                  ? 250.0
                  : 11250.0;
    pc.read_fraction = 0.7;
    pc.block_size = 4096;
    gens.push_back(std::make_unique<repro::workload::PoissonLoad>(
        *rig.engine(), rig.guest_submit(node), pc, rng.fork(v)));
  }
  rig.begin_run();
  rig.at_node(0, [&gens] {
    for (auto& g : gens) g->start();
  });
  rig.run_until(kOverloadWindow);
  rig.end_window();
  for (auto& g : gens) g->stop();
  rig.run();
  rig.end_run();
  rig.finish();
  const std::uint64_t admitted = r.counter("qos.admitted");
  const std::uint64_t rejected = r.counter("qos.rejected");
  if (admitted + rejected != r.attempted) {
    rig.fail("tenant_overload: admitted + rejected = " +
             std::to_string(admitted + rejected) + " != offered " +
             std::to_string(r.attempted));
  }
  if (rig.guest_status(StorageStatus::kRejected) != rejected) {
    rig.fail("tenant_overload: guest saw " +
             std::to_string(rig.guest_status(StorageStatus::kRejected)) +
             " rejections, admission counted " + std::to_string(rejected));
  }
  if (r.counter("sa.ios") != admitted) {
    rig.fail("tenant_overload: sa.ios != qos.admitted");
  }
  if (rejected == 0) rig.fail("tenant_overload: no rejection under overload");
  rig.finish_traced();
  rig.teardown();
}

// ---------------------------------------------------------------------------
// fleet_sharded: 1 000 nodes, 100 K VDs on the sharded engine.

constexpr TimeNs kFleetWindow = ms(60);
constexpr int kFleetVds = 100000;

ebs::ScenarioSpec fleet_sharded_spec() {
  ebs::ScenarioSpec s;
  s.name = "fleet_sharded";
  s.compute_nodes = 500;
  s.storage_nodes = 500;
  s.servers_per_rack = 8;
  s.spines_per_pod = 4;
  s.core_switches = 4;
  s.shards = 8;
  // Timed on one worker thread: at two, each epoch's barrier hand-off waits
  // on OS wake-ups, and on a shared host the run phase then swings 3-5x
  // between runs. A 2-thread run after the timed repetitions must match
  // them bit for bit.
  s.threads = 1;
  s.stack = ebs::StackKind::kSolar;
  s.seed = kClusterSeed;
  s.vd_stripe_width = 4;
  ebs::VdSpec vd;
  vd.size_bytes = 256ull << 20;
  s.vds.assign(kFleetVds, vd);
  return s;
}

void run_fleet_sharded(const RepOptions& opt, RepResult& r) {
  const ebs::ScenarioSpec spec = fleet_sharded_spec();
  // Coarser fabric propagation = wider conservative lookahead (the
  // bench/fleet_scale shape).
  Rig rig(spec, opt,
          [](ebs::ClusterParams& p) { p.topo.fabric_prop = us(2); }, r);
  ebs::Cluster& c = rig.cluster();
  const int ncompute = c.num_compute();
  const std::uint64_t span = rig.vds().size() / static_cast<std::size_t>(ncompute);
  struct alignas(64) RoundRobin {
    std::uint64_t next = 0;
    std::unique_ptr<repro::workload::PoissonLoad> gen;
  };
  std::vector<RoundRobin> rr(static_cast<std::size_t>(ncompute));
  repro::Rng rng(opt.seed ^ 0xF1EE7ull);
  for (int i = 0; i < ncompute; ++i) {
    const std::uint64_t base = rig.vds()[static_cast<std::size_t>(i) * span];
    auto guest = rig.guest_submit(i);
    RoundRobin& slot = rr[static_cast<std::size_t>(i)];
    auto submit = [guest, &slot, base, span](IoRequest io, IoCompleteFn done) {
      io.vd_id = base + (slot.next++ % span);
      guest(std::move(io), std::move(done));
    };
    repro::workload::PoissonConfig pc;
    pc.vd_id = base;
    pc.vd_size = spec.vds[0].size_bytes;
    pc.iops = 200.0;
    pc.read_fraction = 0.7;
    pc.block_size = 4096;
    sim::ShardScope scope(c.compute_shard(i));
    slot.gen = std::make_unique<repro::workload::PoissonLoad>(
        c.engine(), submit, pc, rng.fork(static_cast<std::uint64_t>(i)));
  }
  rig.begin_run();
  for (int i = 0; i < ncompute; ++i) {
    rig.at_node(i, [&rr, i] { rr[static_cast<std::size_t>(i)].gen->start(); });
  }
  rig.run_until(kFleetWindow);
  rig.end_window();
  for (int i = 0; i < ncompute; ++i) {
    sim::ShardScope scope(c.compute_shard(i));
    rr[static_cast<std::size_t>(i)].gen->stop();
  }
  rig.run();
  rig.end_run();
  rig.finish();
  if (r.ok != r.attempted) {
    rig.fail("fleet_sharded: " + std::to_string(r.attempted - r.ok) +
             " I/Os failed on a fault-free fleet");
  }
  if (r.counter("sa.ios") != r.attempted) {
    rig.fail("fleet_sharded: sa.ios != guest I/Os");
  }
  rig.finish_traced();
  rig.teardown();
}

}  // namespace

std::uint64_t RepResult::counter(const std::string& name) const {
  for (const auto& kv : counters) {
    if (kv.first == name) return kv.second;
  }
  std::fprintf(stderr, "perfbench: unknown counter %s\n", name.c_str());
  std::abort();
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "mixed_fio", "ec_rmw", "tenant_overload", "fleet_sharded", "ec_repair"};
  return kNames;
}

bool is_sharded(const std::string& workload) {
  return workload == "fleet_sharded";
}

const std::vector<std::string>& reported_spans() {
  static const std::vector<std::string> kSpans = {
      "dpu.cpu", "fpga.pipeline", "pcie.internal",
      "fabric.hop", "bs.read", "ssd.read"};
  return kSpans;
}

RepResult run_rep(const std::string& workload, const RepOptions& opt) {
  RepResult r;
  if (workload == "mixed_fio") {
    run_mixed_fio(opt, r);
  } else if (workload == "ec_rmw") {
    run_ec(opt, r, /*fail_stop=*/false);
  } else if (workload == "ec_repair") {
    run_ec(opt, r, /*fail_stop=*/true);
  } else if (workload == "tenant_overload") {
    run_tenant_overload(opt, r);
  } else if (workload == "fleet_sharded") {
    run_fleet_sharded(opt, r);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", workload.c_str());
    std::abort();
  }
  return r;
}

}  // namespace perfbench
