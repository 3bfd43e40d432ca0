// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--expect <hex fingerprint>]
//
// --trace 0 repeats dark repetitions (no obs, no sampler) of the workload
// for --seconds and reports the end-to-end metrics as medians; --trace 1
// alternates dark and traced repetitions and reports the per-layer metrics.
// Every repetition must produce the same simulated fingerprint, the traced
// run must match the dark one, a sharded workload (timed on one thread) must
// match its 2-thread run, and --expect (the stored fingerprint for the default seed) must
// match. The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// It exits 0 whenever it prints that line, correct or not: the line carries
// the verdict.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "kernels/kernels.h"
#include "profiler.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool has_expect = false;
  std::uint64_t expect = 0;
};

volatile std::uint64_t g_sink = 0;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class F>
double median_of(const std::vector<RepResult>& reps, F f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const RepResult& r : reps) v.push_back(f(r));
  return median(v);
}

/// Host calibration: events/s of a plain binary-heap scheduler with
/// std::function callbacks and a cancel set (the pre-timer-wheel engine
/// `bench/microbench_core` keeps as its baseline), on a fixed churn loop.
/// It shares no code with the simulator, so no change to `src/` moves it.
/// One call takes ~40 ms.
double calib_mev_s() {
  struct Event {
    std::int64_t time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  std::uint64_t sink = 0;
  std::priority_queue<Event, std::vector<Event>, Later> q;
  std::unordered_set<std::uint64_t> canceled;
  std::uint64_t lcg = 12345, seq = 0, events = 0;
  std::int64_t now = 0;
  const double t0 = wall_now();
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 1024; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      const std::int64_t d = static_cast<std::int64_t>((lcg >> 33) % 100000);
      const std::uint64_t x = lcg;
      if (i % 3 == 0) canceled.insert(seq);
      q.push({now + d, seq++, [&sink, x, d] {
                sink += x ^ static_cast<std::uint64_t>(d);
              }});
    }
    while (!q.empty()) {
      Event ev = std::move(const_cast<Event&>(q.top()));
      q.pop();
      ++events;
      if (canceled.erase(ev.seq) != 0) continue;
      now = ev.time;
      ev.fn();
    }
  }
  const double rate = static_cast<double>(events) / (wall_now() - t0) / 1e6;
  g_sink = sink;  // keep the callbacks observable
  return rate;
}

/// Calibration rate of the reference host: a 4-vCPU 2.0 GHz x86-64 VM in a
/// quiet period. End-to-end host times are reported as seconds on that host.
constexpr double kReferenceMevS = 6.0;

/// GB/s of data bytes through the active tier's fused EC encode (k = 4,
/// m = 2, 4 KiB cells: the ec_rmw geometry) and CRC-32 over 4 KiB blocks.
void kernel_gbps(double* encode, double* crc) {
  const repro::kernels::Kernels& kk = repro::kernels::active();
  constexpr std::size_t kK = 4, kM = 2, kCell = 4096;
  std::vector<std::vector<std::uint8_t>> data(kK, std::vector<std::uint8_t>(kCell));
  std::vector<std::vector<std::uint8_t>> parity(kM, std::vector<std::uint8_t>(kCell));
  std::uint8_t coef[kM][kK];
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& d : data) {
    for (auto& b : d) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<std::uint8_t>(x);
    }
  }
  for (std::size_t q = 0; q < kM; ++q) {
    for (std::size_t p = 0; p < kK; ++p) {
      coef[q][p] = static_cast<std::uint8_t>(2 + 7 * q + p);
    }
  }
  const std::uint8_t* rows[kM] = {coef[0], coef[1]};
  const std::uint8_t* in[kK] = {data[0].data(), data[1].data(), data[2].data(),
                                data[3].data()};
  std::uint8_t* out[kM] = {parity[0].data(), parity[1].data()};
  std::vector<double> enc, crcs;
  std::uint32_t state = 0;
  for (int trial = 0; trial < 5; ++trial) {
    constexpr int kIters = 4000;
    double t0 = wall_now();
    for (int i = 0; i < kIters; ++i) {
      kk.ec_encode(kK, kM, rows, in, out, kCell);
      data[0][static_cast<std::size_t>(i) % kCell] ^= parity[0][0];
    }
    enc.push_back(static_cast<double>(kIters) * kK * kCell / (wall_now() - t0) / 1e9);
    t0 = wall_now();
    for (int i = 0; i < kIters; ++i) {
      state = kk.crc32_update(state, data[static_cast<std::size_t>(i) % kK].data(),
                              kCell);
    }
    crcs.push_back(static_cast<double>(kIters) * kCell / (wall_now() - t0) / 1e9);
  }
  g_sink = state;
  *encode = median(enc);
  *crc = median(crcs);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Accumulates the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!metrics_.empty()) metrics_ += ", ";
    metrics_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                unit + "\"}";
  }
  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed,
                metrics_.c_str());
  }

 private:
  std::string metrics_;
};

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = val;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      o->seconds = std::strtod(val, &end);
      if (*end != '\0' || !(o->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return false;
      o->trace = val[0] == '1';
    } else if (key == "--expect") {
      o->expect = std::strtoull(val, &end, 16);
      if (*end != '\0') return false;
      o->has_expect = true;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  return std::find(workload_names().begin(), workload_names().end(),
                   o->workload) != workload_names().end();
}

int run(const Options& o) {
  std::printf("machine: nproc=%u compiler=\"%s\" build=%s kernel_tier=%s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE,
              repro::kernels::tier_name(repro::kernels::best_tier()));
  std::vector<std::string> errors;
  auto check = [&errors](bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  };

  // Kernel probes are per-layer metrics: only the traced run pays for them.
  double enc_gbps = 0.0, crc_gbps = 0.0;
  if (o.trace) kernel_gbps(&enc_gbps, &crc_gbps);

  PcSampler sampler;
  std::vector<RepResult> dark, traced;
  const double deadline = wall_now() + o.seconds;
  RepOptions dopt;
  dopt.seed = o.seed;
  RepOptions topt = dopt;
  topt.traced = true;
  // Host speed on a shared machine drifts by tens of percent over minutes.
  // The calibration loop runs before and after every dark repetition, and
  // the repetition's host times are scaled by the host's speed around it
  // (mean of the two rates over kReferenceMevS).
  std::vector<double> calib = {calib_mev_s()};
  std::vector<double> speed;
  do {
    dark.push_back(run_rep(o.workload, dopt));
    calib.push_back(calib_mev_s());
    speed.push_back(0.5 * (calib[calib.size() - 2] + calib.back()) /
                    kReferenceMevS);
    if (o.trace) {
      sampler.start();
      traced.push_back(run_rep(o.workload, topt));
      sampler.stop();
    }
  } while (wall_now() < deadline || dark.size() < (o.trace ? 1u : 2u));
  const double rss = peak_rss_mib();

  // Correctness: every repetition agrees, traced == dark, and the stored
  // fingerprint for the default seed.
  const std::uint64_t fp = dark.front().fingerprint;
  for (const RepResult& r : dark) {
    check(r.fingerprint == fp, "dark repetitions disagree on the fingerprint");
    for (const std::string& e : r.errors) errors.push_back(e);
  }
  if (!o.trace) traced.push_back(run_rep(o.workload, topt));
  for (const RepResult& r : traced) {
    check(r.fingerprint == fp, "traced run fingerprint != dark fingerprint");
    for (const std::string& e : r.errors) errors.push_back(e);
  }
  // A sharded workload is timed on one worker thread; its 2-thread run must
  // match bit for bit, and is where the barrier wait (sim.cpu_per_wall)
  // shows.
  std::vector<RepResult> threaded;
  if (is_sharded(o.workload)) {
    RepOptions par = dopt;
    par.threads = 2;
    threaded.push_back(run_rep(o.workload, par));
    check(threaded.back().fingerprint == fp,
          "2-thread fingerprint != 1-thread fingerprint");
  }
  if (o.has_expect) {
    char want[32];
    std::snprintf(want, sizeof want, "%016" PRIx64, o.expect);
    check(fp == o.expect, std::string("fingerprint != stored ") + want);
  }
  std::sort(errors.begin(), errors.end());
  errors.erase(std::unique(errors.begin(), errors.end()), errors.end());
  const bool correct = errors.empty();

  const RepResult& d0 = dark.front();
  std::printf("workload=%s seed=%" PRIu64 " dark_reps=%zu traced_reps=%zu "
              "threads=%d\n",
              o.workload.c_str(), o.seed, dark.size(), traced.size(),
              d0.threads);
  std::printf("fingerprint=%016" PRIx64 " guest_ios=%" PRIu64 " ok=%" PRIu64
              " sim_p50_us=%.2f sim_p99_us=%.2f\n",
              fp, d0.attempted, d0.ok, d0.sim_p50_us, d0.sim_p99_us);
  for (const auto& [name, value] : d0.counters) {
    std::printf("counter %s=%" PRIu64 "\n", name.c_str(), value);
  }
  for (std::size_t i = 0; i < dark.size(); ++i) {
    const RepResult& r = dark[i];
    std::printf("rep wall_s=%.4f build_s=%.4f create_vd_s=%.4f prefill_s=%.4f "
                "run_s=%.4f teardown_s=%.4f host_speed=%.4f\n",
                r.wall_s(), r.build_s, r.create_vd_s, r.prefill_s, r.run_s,
                r.teardown_s, speed[i]);
  }
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  std::uint64_t attempted = 0, ok = 0;
  for (const RepResult& r : dark) {
    attempted += r.attempted;
    ok += r.ok;
  }
  const std::uint64_t failed = correct ? 0 : attempted;
  if (!correct) ok = 0;

  Report rep;
  if (!o.trace) {
    std::vector<double> wall, setup, io_rate;
    for (std::size_t i = 0; i < dark.size(); ++i) {
      const RepResult& r = dark[i];
      wall.push_back(r.wall_s() * speed[i]);
      setup.push_back(r.setup_s() * speed[i]);
      io_rate.push_back(static_cast<double>(r.run_blocks) / (r.run_s * speed[i]));
    }
    rep.metric("wall_s", median(wall), "s");
    rep.metric("setup_s", median(setup), "s");
    rep.metric("sim_io_per_s", median(io_rate), "1/s");
    rep.metric("peak_rss_mb", rss, "MiB");
    rep.metric("io_ok_ratio",
               static_cast<double>(ok) / static_cast<double>(attempted), "ratio");
    rep.print(correct, attempted, failed);
    return 0;
  }

  const RepResult& t0 = traced.front();
  auto c = [&t0](const char* name) {
    return static_cast<double>(t0.counter(name));
  };
  const double ios = c("guest.issued");
  const double run_s = median_of(dark, [](const RepResult& r) { return r.run_s; });
  const double traced_run_s =
      median_of(traced, [](const RepResult& r) { return r.run_s; });
  rep.metric("sim.run_s", run_s, "s");
  rep.metric("sim.events", c("sim.events"), "count");
  rep.metric("sim.events_per_io", c("sim.events") / ios, "ev/io");
  rep.metric("sim.events_per_s", c("sim.events") / run_s, "1/s");
  rep.metric("sim.cpu_per_wall",
             median_of(threaded.empty() ? dark : threaded,
                       [](const RepResult& r) {
                         return r.run_cpu_s / (r.run_s * r.threads);
                       }),
             "ratio");
  rep.metric("net.pkts_forwarded", c("net.pkts_forwarded"), "count");
  rep.metric("net.pkts_per_io", c("net.pkts_forwarded") / ios, "pkt/io");
  for (const char* name :
       {"net.drops", "net.ecmp_rehashes", "transport.msgs",
        "transport.retransmits", "transport.timeouts", "solar.data_pkts_tx",
        "solar.retransmits", "solar.path_redraws", "sa.ios", "sa.split_ios"}) {
    rep.metric(name, c(name), "count");
  }
  rep.metric("stack.submit_ns_per_io",
             median_of(traced,
                       [](const RepResult& r) {
                         return r.submit_s * 1e9 /
                                static_cast<double>(std::max<std::uint64_t>(
                                    1, r.submit_calls));
                       }),
             "ns");
  rep.metric("sa.create_vd_s",
             median_of(dark, [](const RepResult& r) { return r.create_vd_s; }), "s");
  rep.metric("dpu.cpu.busy_ns", c("dpu.cpu.busy_ns"), "ns");
  rep.metric("dpu.pcie.bytes", c("dpu.pcie.bytes"), "bytes");
  rep.metric("storage.ssd_ops", c("storage.ssd_ops"), "count");
  rep.metric("storage.ssd_queue_backlog_ns", c("storage.ssd_queue_backlog_ns"), "ns");
  rep.metric("storage.crc_failures", c("storage.crc_failures"), "count");
  for (const char* name :
       {"ec.sub_ios", "ec.degraded_reads", "ec.parity_updates",
        "ec.reconstructs", "ec.cells_rebuilt", "ec.repair_failures",
        "ec.readback_cells", "ec.readback_lost"}) {
    rep.metric(name, c(name), "count");
  }
  rep.metric("ec.rebuild_useful_ratio",
             c("ec.reconstructs") > 0 ? c("ec.cells_rebuilt") / c("ec.reconstructs")
                                      : 0.0,
             "ratio");
  rep.metric("kernels.ec_encode_gbps", enc_gbps, "GB/s");
  rep.metric("kernels.crc32_gbps", crc_gbps, "GB/s");
  for (const char* name :
       {"qos.admitted", "qos.rejected", "qos.slo_ok", "qos.slo_violated"}) {
    rep.metric(name, c(name), "count");
  }
  rep.metric("qos.goodput_ratio", c("qos.slo_ok") / ios, "ratio");
  rep.metric("ebs.build_s",
             median_of(dark, [](const RepResult& r) { return r.build_s; }), "s");
  rep.metric("workload.prefill_s",
             median_of(dark, [](const RepResult& r) { return r.prefill_s; }), "s");
  rep.metric("obs.overhead_ratio", traced_run_s / run_s, "ratio");
  rep.metric("obs.export_s",
             median_of(traced, [](const RepResult& r) { return r.export_s; }), "s");
  rep.metric("obs.spans", static_cast<double>(t0.spans), "count");
  for (const auto& [name, p50] : t0.span_self_us_p50) {
    rep.metric("span." + name + ".self_us_p50", p50, "us");
  }
  const auto pcs = sampler.samples();
  const Attribution shares = attribute_samples(pcs, 12);
  for (const auto& [name, n] : shares.top) {
    std::printf("host_top %.4f %.160s\n",
                static_cast<double>(n) / static_cast<double>(pcs.size()),
                name.c_str());
  }
  for (const std::string& m : share_modules()) {
    rep.metric("host_share." + m,
               pcs.empty() ? 0.0
                           : static_cast<double>(shares.by_module.at(m)) /
                                 static_cast<double>(pcs.size()),
               "ratio");
  }
  rep.metric("host_share.samples", static_cast<double>(pcs.size()), "count");
  rep.metric("host.calib_mev_s", median(calib), "Mev/s");
  rep.print(correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!perfbench::parse(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: %s --workload <mixed_fio|ec_rmw|tenant_overload|"
                 "fleet_sharded|ec_repair> --seed <n> --seconds <s> --trace <0|1> "
                 "[--expect <hex>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(o);
}
