// EC rebuild bench: foreground p99 vs rebuild bandwidth.
//
// Seeds an erasure-coded VD with real payloads, fail-stops one fragment
// holder mid-run (device down + agent belief, so the outage is genuine),
// and lets the MaintenanceAgent's background rebuild race a foreground
// Poisson read stream — once per rebuild_bandwidth_cap arm on an
// otherwise-identical fleet. The node's DPU is throttled to one fat-cost
// core so the rebuild's sub-I/O storm visibly contends with guest traffic:
// the knob's whole tradeoff (repair MTTR vs guest p99) fits one curve.
//
// Asserts on the curve's endpoints:
//   * rebuilt bytes/sec strictly increases from the tightest cap to
//     uncapped (the cap is real), and
//   * foreground p99 does not decrease from the tightest cap to uncapped
//     (rebuild bandwidth is paid for by guest latency),
// plus bit-determinism (the tightest arm re-run must fingerprint equal).
// Writes BENCH_ec_rebuild.json. --smoke shrinks for CI; --scenario replays
// a ScenarioSpec JSON (e.g. the checked-in bench/data/ec_smoke.json) and
// exercises the strict scenario parser on a real file; --policy <name>
// runs the same fleet under a placement policy (legacy / rack-aware /
// exposure) so CI can byte-diff the legacy arm against the policy-free
// baseline and exercise the spread policies on the rebuild path.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/crc32.h"
#include "ebs/scenario.h"
#include "ec/maintenance.h"
#include "placement/policy.h"
#include "workload/fio.h"

namespace {

using namespace repro;
using bench::mix;
using bench::pattern;
using transport::IoCompleteFn;
using transport::IoRequest;
using transport::IoResult;

struct Options {
  bool smoke = false;
  std::string scenario_file;
  std::string policy;
};

struct ArmResult {
  double cap = 0.0;  ///< bytes/sec, 0 = uncapped
  std::uint64_t cells_rebuilt = 0;
  double rebuilt_mbps = 0.0;
  std::uint64_t fg_completed = 0;
  double fg_p99_us = 0.0;
  std::uint64_t fingerprint = 0;
};

/// The built-in EC fleet: one compute node, k+m+1 storage servers.
ebs::ScenarioSpec base_spec(bool smoke) {
  ebs::ScenarioSpec spec;
  spec.name = "ec_rebuild";
  spec.compute_nodes = 1;
  spec.storage_nodes = smoke ? 4 : 7;
  spec.servers_per_rack = smoke ? 4 : 7;
  spec.stack = ebs::StackKind::kSolar;
  spec.seed = 2027;
  spec.store_payload = true;
  ebs::VdSpec vd;
  vd.size_bytes = 64ull << 20;
  spec.vds.push_back(vd);
  spec.workload.read_fraction = 1.0;  // writes to a dead holder would wedge
  spec.workload.block_size = 4096;
  spec.workload.poisson_iops = 2000.0;
  spec.ec.enabled = true;
  spec.ec.k = smoke ? 2 : 4;
  spec.ec.m = smoke ? 1 : 2;
  spec.ec.rebuild_concurrency = 2;
  return spec;
}

ArmResult run_arm(const ebs::ScenarioSpec& spec, double cap,
                  std::uint64_t seed_bytes, TimeNs active) {
  ebs::ClusterParams p = ebs::params_from(spec);
  p.ec.rebuild_bandwidth_cap = cap;
  p.block_server.store_payload = true;
  // One throttled DPU core: rebuild sub-I/Os and guest reads fight for the
  // same dispatch point, so the cap's latency cost is measurable.
  p.dpu.cpu_cores = 1;
  p.solar.cpu_per_rpc = us(40);

  ebs::Scenario s = ebs::build_scenario(spec, std::move(p));
  sim::Engine& eng = *s.engine;
  ebs::Cluster& cluster = *s.cluster;
  const std::uint64_t vd = s.vds.back();

  // Seed the data region with real payloads, one 8K write at a time (the
  // writes are the stripes the rebuild will have to reconstruct).
  for (std::uint64_t off = 0; off < seed_bytes; off += 8192) {
    IoRequest io;
    io.vd_id = vd;
    io.op = transport::OpType::kWrite;
    io.offset = off;
    io.len = 8192;
    io.payload = transport::make_placeholder_blocks(off, io.len, 4096);
    for (auto& blk : io.payload) {
      blk.data = pattern(blk.len, blk.lba + 1);
      blk.crc = crc32_raw(blk.data);
    }
    bool done = false;
    eng.at(eng.now(), [&] {
      cluster.compute(0).submit_io(std::move(io),
                                   [&done](IoResult r) {
                                     done = r.status ==
                                            transport::StorageStatus::kOk;
                                   });
    });
    eng.run();
    if (!done) {
      std::fprintf(stderr, "seed write at %llu failed\n",
                   static_cast<unsigned long long>(off));
      std::exit(1);
    }
  }

  // Foreground: an open-loop Poisson read stream over the seeded region,
  // with per-I/O latency capture for the p99.
  std::vector<TimeNs> lat;
  std::uint64_t fg_completed = 0;
  workload::PoissonConfig gc;
  gc.vd_id = vd;
  gc.vd_size = seed_bytes;
  gc.iops = spec.workload.poisson_iops;
  gc.read_fraction = 1.0;
  gc.block_size = spec.workload.block_size != 0 ? spec.workload.block_size
                                                : 4096;
  auto submit = [&](IoRequest io, IoCompleteFn done) {
    const TimeNs issued = eng.now();
    cluster.compute(0).submit_io(
        std::move(io),
        [&, issued, done = std::move(done)](IoResult r) {
          ++fg_completed;
          lat.push_back(eng.now() - issued);
          done(std::move(r));
        });
  };
  workload::PoissonLoad load(eng, submit, gc, Rng(909));
  eng.at(eng.now(), [&load] { load.start(); });

  // Fail-stop one fragment holder shortly into the run: device down (so
  // probes keep failing) plus the agent's belief (so the rebuild starts at
  // a deterministic instant, not after probe_failures_to_dead intervals).
  const auto frags = cluster.segments().ec_fragments(vd, 0);
  const net::IpAddr victim = frags[0].block_server;
  const TimeNs kill_at = eng.now() + ms(20);
  TimeNs rebuild_done_at = 0;
  eng.at(kill_at, [&] {
    for (int i = 0; i < cluster.num_storage(); ++i) {
      if (cluster.storage(i).nic().ip() == victim) {
        cluster.network().fail_device_stop(cluster.storage(i).nic());
      }
    }
    cluster.compute(0).ec()->mark_server(victim, false);
    cluster.compute(0).maintenance()->force_server_down(victim);
  });
  // Poll for rebuild completion (the curve's MTTR endpoint).
  std::function<void()> poll = [&] {
    ec::MaintenanceAgent* agent = cluster.compute(0).maintenance();
    if (rebuild_done_at == 0 && eng.now() > kill_at && agent->idle() &&
        agent->stats().segments_rebuilt > 0) {
      rebuild_done_at = eng.now();
      return;  // stop polling
    }
    eng.schedule_after(ms(2), [&] { poll(); });
  };
  eng.at(eng.now(), [&] { poll(); });

  const TimeNs end = eng.now() + active;
  eng.run_until(end);
  load.stop();

  ArmResult r;
  r.cap = cap;
  const ec::MaintenanceAgent::Stats& mstats =
      cluster.compute(0).maintenance()->stats();
  r.cells_rebuilt = mstats.cells_rebuilt;
  const TimeNs span =
      (rebuild_done_at != 0 ? rebuild_done_at : end) - kill_at;
  r.rebuilt_mbps = span > 0
                       ? static_cast<double>(r.cells_rebuilt) * 4096.0 *
                             1e9 / static_cast<double>(span) / 1e6
                       : 0.0;
  r.fg_completed = fg_completed;
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    const std::size_t idx =
        std::min(lat.size() - 1, lat.size() * 99 / 100);
    r.fg_p99_us = static_cast<double>(lat[idx]) / 1000.0;
  }
  std::uint64_t h = mix(eng.executed(), static_cast<std::uint64_t>(eng.now()));
  h = mix(h, fg_completed);
  h = mix(h, r.cells_rebuilt);
  h = mix(h, cluster.compute(0).ec()->stats().degraded_reads);
  r.fingerprint = h;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      o.smoke = true;
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      o.scenario_file = argv[++i];
    } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      o.policy = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--scenario spec.json] "
                   "[--policy legacy|rack-aware|exposure]\n",
                   argv[0]);
      return 2;
    }
  }

  ebs::ScenarioSpec spec = base_spec(o.smoke);
  if (!o.scenario_file.empty()) {
    std::ifstream f(o.scenario_file);
    if (!f) {
      std::fprintf(stderr, "cannot open scenario: %s\n",
                   o.scenario_file.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    std::string err;
    if (!ebs::scenario_from_json(ss.str(), &spec, &err)) {
      std::fprintf(stderr, "bad scenario: %s\n", err.c_str());
      return 2;
    }
    if (!spec.ec.enabled) {
      std::fprintf(stderr, "scenario has no EC fleet (ec.enabled=false)\n");
      return 2;
    }
    if (spec.shards > 1) {
      std::fprintf(stderr, "ec_rebuild runs on one engine (shards must be 1)\n");
      return 2;
    }
  }
  if (!o.policy.empty()) {
    spec.placement.enabled = true;
    if (!placement::policy_from_string(o.policy, &spec.placement.policy)) {
      std::fprintf(stderr, "unknown placement policy: %s\n",
                   o.policy.c_str());
      return 2;
    }
  }

  const std::uint64_t seed_bytes = o.smoke ? (4ull << 20) : (16ull << 20);
  const TimeNs active = o.smoke ? ms(600) : ms(1500);
  std::vector<double> caps = o.smoke
                                 ? std::vector<double>{2e6, 8e6, 0.0}
                                 : std::vector<double>{1e6, 4e6, 16e6, 0.0};

  bench::RunSummary summary("ec_rebuild",
                            "foreground p99 vs rebuild bandwidth (EC fleet)");
  std::printf("%-12s %14s %14s %12s %12s %18s\n", "cap", "cells_rebuilt",
              "rebuilt_MB/s", "fg_ios", "fg_p99_us", "fingerprint");
  std::vector<ArmResult> arms;
  for (const double cap : caps) {
    const ArmResult r = run_arm(spec, cap, seed_bytes, active);
    arms.push_back(r);
    char capname[32];
    if (cap <= 0.0) {
      std::snprintf(capname, sizeof capname, "uncapped");
    } else {
      std::snprintf(capname, sizeof capname, "%.0fMB/s", cap / 1e6);
    }
    std::printf("%-12s %14llu %14.2f %12llu %12.1f   %016llx\n", capname,
                static_cast<unsigned long long>(r.cells_rebuilt),
                r.rebuilt_mbps, static_cast<unsigned long long>(r.fg_completed),
                r.fg_p99_us, static_cast<unsigned long long>(r.fingerprint));
    summary.row()
        .set("cap_bytes_per_sec", r.cap)
        .set("cells_rebuilt", r.cells_rebuilt)
        .set("rebuilt_mbps", r.rebuilt_mbps)
        .set("fg_completed", r.fg_completed)
        .set("fg_p99_us", r.fg_p99_us)
        .set("fingerprint", r.fingerprint);
  }

  bool ok = true;
  const ArmResult& tight = arms.front();
  const ArmResult& open = arms.back();
  if (open.rebuilt_mbps <= tight.rebuilt_mbps) {
    std::fprintf(stderr,
                 "CAP NOT BINDING: uncapped rebuilt %.2f MB/s <= tightest "
                 "cap's %.2f MB/s\n",
                 open.rebuilt_mbps, tight.rebuilt_mbps);
    ok = false;
  }
  if (open.fg_p99_us < tight.fg_p99_us) {
    std::fprintf(stderr,
                 "CURVE NOT MONOTONE: uncapped fg p99 %.1f us < tightest "
                 "cap's %.1f us\n",
                 open.fg_p99_us, tight.fg_p99_us);
    ok = false;
  }
  // Bit-determinism: the tightest arm re-run must fingerprint equal.
  const ArmResult again = run_arm(spec, caps.front(), seed_bytes, active);
  if (again.fingerprint != tight.fingerprint) {
    std::fprintf(stderr, "DETERMINISM VIOLATION: %016llx != %016llx\n",
                 static_cast<unsigned long long>(again.fingerprint),
                 static_cast<unsigned long long>(tight.fingerprint));
    ok = false;
  }

  if (!summary.write()) {
    std::fprintf(stderr, "warning: could not write BENCH_ec_rebuild.json\n");
  }
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
