// Overload bench: goodput-under-SLO with early rejection ON vs OFF.
//
// Drives a SOLAR fleet far past saturation (>= 10x offered vs sustainable)
// under two built-in scenarios — a diurnal spike (the paper's Fig. 4 curve
// compressed and scaled x10) and a noisy neighbor (a guaranteed tenant
// sharing every node with a best-effort tenant flooding it) — and measures
// goodput-under-SLO: completions that returned kOk within their tenant's
// p99 target, per second. Both arms see byte-identical offered load; the
// only difference is `qos.early_reject`. The bench asserts
//   * ON achieves strictly higher goodput-under-SLO than OFF, and
//   * every (scenario, arm) run is bit-identical across --threads,
// then writes BENCH_overload.json.
//
// --scenario <file> replays a ScenarioSpec JSON instead of the built-in
// fleet; --trace <file> replays a jsonl trace (Mooncake format) instead of
// the synthesized diurnal curve. --smoke shrinks everything for CI.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "ebs/scenario.h"
#include "workload/fio.h"
#include "workload/trace.h"

namespace {

using namespace repro;
using bench::mix;
using transport::IoCompleteFn;
using transport::IoRequest;
using transport::IoResult;

struct Options {
  bool smoke = false;
  std::vector<int> threads = {1, 2, 8};
  std::string scenario_file;
  std::string trace_file;
};

enum class Load { kTrace, kNoisyNeighbor };

struct RunResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t slo_ok = 0;
  std::uint64_t slo_violated = 0;
  std::uint64_t executed = 0;
  TimeNs end_time = 0;
  std::uint64_t fingerprint = 0;
  double goodput_per_sec = 0.0;
};

/// The built-in overloaded SOLAR fleet. Capacity is deliberately small
/// (one DPU core, fat per-RPC cost) so 10x saturation stays cheap to
/// simulate; per node, VD 2i is the guaranteed tenant and 2i+1 best-effort.
ebs::ScenarioSpec base_spec(bool smoke) {
  ebs::ScenarioSpec spec;
  spec.name = "overload";
  spec.compute_nodes = smoke ? 2 : 4;
  spec.storage_nodes = smoke ? 2 : 4;
  spec.servers_per_rack = smoke ? 1 : 2;
  spec.spines_per_pod = 2;
  spec.core_switches = 2;
  spec.shards = 4;
  spec.stack = ebs::StackKind::kSolar;
  spec.seed = 42;
  for (int i = 0; i < spec.compute_nodes; ++i) {
    ebs::VdSpec guaranteed;
    guaranteed.size_bytes = 256ull << 20;
    guaranteed.has_slo = true;
    guaranteed.slo.target_p99 = ms(2);
    guaranteed.slo.guaranteed_iops = 2500.0;
    guaranteed.slo.cls = qos::SloClass::kGuaranteed;
    spec.vds.push_back(guaranteed);
    ebs::VdSpec best_effort;
    best_effort.size_bytes = 256ull << 20;
    best_effort.has_slo = true;
    best_effort.slo.target_p99 = ms(4);
    best_effort.slo.cls = qos::SloClass::kBestEffort;
    spec.vds.push_back(best_effort);
  }
  spec.qos.enabled = true;
  spec.qos.sched_enabled = true;
  // Shed *early*: admitted I/Os should land safely inside their target,
  // not at its edge — under deep overload an edge admit is a violation.
  spec.qos.headroom = 0.8;
  return spec;
}

RunResult run_arm(const ebs::ScenarioSpec& base, Load load,
                  const std::vector<workload::TraceRecord>& trace,
                  TimeNs active, int threads, bool early_reject) {
  ebs::ScenarioSpec spec = base;
  spec.threads = threads;
  spec.qos.enabled = true;
  spec.qos.early_reject = early_reject;
  ebs::ClusterParams p = ebs::params_from(spec);
  // Throttle node capacity: a single fat-cost DPU core keeps "10x
  // saturation" simulable in seconds (identical in both arms).
  p.dpu.cpu_cores = 1;
  p.solar.cpu_per_rpc = us(100);
  ebs::Scenario s = ebs::build_scenario(spec, std::move(p));
  ebs::Cluster& cluster = *s.cluster;

  const int ncompute = cluster.num_compute();
  struct NodeLoad {
    std::unique_ptr<workload::TraceReplay> replay;
    std::unique_ptr<workload::PoissonLoad> guaranteed;
    std::unique_ptr<workload::PoissonLoad> best_effort;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
  };
  std::vector<NodeLoad> loads(static_cast<std::size_t>(ncompute));

  Rng rng(777);
  for (int i = 0; i < ncompute; ++i) {
    NodeLoad& nl = loads[static_cast<std::size_t>(i)];
    // The node's VD slice: a contiguous block, so the spec's per-node
    // (guaranteed, best-effort) pairs land on one node together.
    const std::size_t per = std::max<std::size_t>(
        1, s.vds.size() / static_cast<std::size_t>(ncompute));
    std::vector<std::uint64_t> vds;
    for (std::size_t v = static_cast<std::size_t>(i) * per;
         v < std::min(s.vds.size(), (static_cast<std::size_t>(i) + 1) * per);
         ++v) {
      vds.push_back(s.vds[v]);
    }
    if (vds.empty()) vds.push_back(s.vds[0]);
    auto submit = [&cluster, &nl, i](IoRequest io, IoCompleteFn done) {
      ++nl.issued;
      cluster.compute(i).submit_io(std::move(io),
                                   [&nl, done = std::move(done)](IoResult r) {
                                     ++nl.completed;
                                     done(std::move(r));
                                   });
    };
    sim::ShardScope scope(cluster.compute_shard(i));
    if (load == Load::kTrace) {
      workload::TraceReplayConfig tc;
      nl.replay = std::make_unique<workload::TraceReplay>(
          cluster.engine(), submit, vds, trace, tc,
          rng.fork(static_cast<std::uint64_t>(i)));
    } else {
      // Guaranteed tenant under its floor; best-effort flooding ~9x the
      // node's capacity.
      workload::PoissonConfig gc;
      gc.vd_id = vds[0];
      gc.vd_size = 256ull << 20;
      gc.iops = 2000.0;
      gc.read_fraction = 0.7;
      gc.block_size = 4096;
      nl.guaranteed = std::make_unique<workload::PoissonLoad>(
          cluster.engine(), submit, gc,
          rng.fork(1000 + static_cast<std::uint64_t>(i)));
      workload::PoissonConfig bc = gc;
      bc.vd_id = vds.size() > 1 ? vds[1] : vds[0];
      bc.iops = 90000.0;
      nl.best_effort = std::make_unique<workload::PoissonLoad>(
          cluster.engine(), submit, bc,
          rng.fork(2000 + static_cast<std::uint64_t>(i)));
    }
  }

  auto for_each_gen = [&](auto&& fn) {
    for (int i = 0; i < ncompute; ++i) {
      sim::ShardScope scope(cluster.compute_shard(i));
      fn(loads[static_cast<std::size_t>(i)]);
    }
  };
  for_each_gen([&](NodeLoad& nl) {
    sim::Engine& he = cluster.engine();
    he.at(he.now(), [&nl] {
      if (nl.replay) nl.replay->start();
      if (nl.guaranteed) nl.guaranteed->start();
      if (nl.best_effort) nl.best_effort->start();
    });
  });
  s.run_until(active);
  for_each_gen([](NodeLoad& nl) {
    if (nl.replay) nl.replay->stop();
    if (nl.guaranteed) nl.guaranteed->stop();
    if (nl.best_effort) nl.best_effort->stop();
  });
  s.run();

  RunResult r;
  r.executed = s.executed();
  r.end_time = s.now();
  std::uint64_t h = mix(r.executed, static_cast<std::uint64_t>(r.end_time));
  for (int i = 0; i < ncompute; ++i) {
    const NodeLoad& nl = loads[static_cast<std::size_t>(i)];
    r.issued += nl.issued;
    r.completed += nl.completed;
    h = mix(h, nl.issued);
    h = mix(h, nl.completed);
    const qos::NodeAdmission* adm = cluster.compute(i).admission();
    const qos::NodeAdmission::Stats& st = adm->stats();
    for (int c = 0; c < qos::kSloClasses; ++c) {
      r.admitted += st.admitted[c];
      r.rejected += st.rejected[c];
      r.slo_ok += st.slo_ok[c];
      r.slo_violated += st.slo_violated[c];
      h = mix(h, st.admitted[c]);
      h = mix(h, st.rejected[c]);
      h = mix(h, st.slo_ok[c]);
      h = mix(h, st.slo_violated[c]);
    }
  }
  h = mix(h, cluster.network().drops_total().total());
  r.fingerprint = h;
  r.goodput_per_sec =
      static_cast<double>(r.slo_ok) * 1e9 / static_cast<double>(active);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      o.smoke = true;
      o.threads = {1, 2};
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      o.threads.clear();
      for (char* tok = std::strtok(argv[++i], ","); tok != nullptr;
           tok = std::strtok(nullptr, ",")) {
        o.threads.push_back(std::atoi(tok));
      }
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      o.scenario_file = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      o.trace_file = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--threads 1,2,8] "
                   "[--scenario spec.json] [--trace trace.jsonl]\n",
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
  }
  // Capacity throttle lives in the spec-independent params: one DPU core
  // with a fat per-RPC cost, so overload factors are scenario-controlled.
  // Long enough that the steady state dominates the cold-start flood the
  // predictor admits before its first completions arrive.
  const TimeNs active = o.smoke ? ms(40) : ms(80);

  std::vector<workload::TraceRecord> trace;
  if (!o.trace_file.empty()) {
    std::string err;
    if (!workload::load_trace_file(o.trace_file, &trace, &err)) {
      std::fprintf(stderr, "bad trace: %s\n", err.c_str());
      return 2;
    }
  } else {
    workload::DiurnalTraceConfig dc;
    dc.peak_iops = o.smoke ? 60000.0 : 100000.0;  // ~10x one throttled core
    dc.duration = active - ms(2);
    dc.vds = 2;
    dc.read_fraction = 0.7;
    trace = workload::synth_diurnal_trace(dc, Rng(4242));
  }

  struct ScenarioRun {
    const char* name;
    Load load;
  };
  std::vector<ScenarioRun> scenarios;
  if (!o.scenario_file.empty() || !o.trace_file.empty()) {
    scenarios.push_back({"trace_replay", Load::kTrace});
  } else {
    scenarios.push_back({"diurnal_x10", Load::kTrace});
    scenarios.push_back({"noisy_neighbor", Load::kNoisyNeighbor});
  }

  bench::RunSummary summary("overload",
                            "goodput-under-SLO, early rejection on/off");
  std::printf("%-16s %-4s %8s %10s %10s %10s %10s %12s %18s\n", "scenario",
              "arm", "threads", "issued", "rejected", "slo_ok", "violated",
              "goodput/s", "fingerprint");
  bool ok = true;
  for (const ScenarioRun& sc : scenarios) {
    double goodput[2] = {0.0, 0.0};
    std::uint64_t issued[2] = {0, 0};
    for (int arm = 0; arm < 2; ++arm) {
      const bool early = arm == 1;
      std::uint64_t want = 0;
      bool first = true;
      for (int t : o.threads) {
        const RunResult r = run_arm(spec, sc.load, trace, active, t, early);
        if (first) {
          want = r.fingerprint;
          first = false;
        } else if (r.fingerprint != want) {
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION: %s/%s fingerprint %016llx at "
                       "%d threads != %016llx\n",
                       sc.name, early ? "on" : "off",
                       static_cast<unsigned long long>(r.fingerprint), t,
                       static_cast<unsigned long long>(want));
          return 1;
        }
        goodput[arm] = r.goodput_per_sec;
        issued[arm] = r.issued;
        std::printf("%-16s %-4s %8d %10llu %10llu %10llu %10llu %12.0f   "
                    "%016llx\n",
                    sc.name, early ? "on" : "off", t,
                    static_cast<unsigned long long>(r.issued),
                    static_cast<unsigned long long>(r.rejected),
                    static_cast<unsigned long long>(r.slo_ok),
                    static_cast<unsigned long long>(r.slo_violated),
                    r.goodput_per_sec,
                    static_cast<unsigned long long>(r.fingerprint));
        summary.row()
            .set("scenario", std::string(sc.name))
            .set("early_reject", early)
            .set("threads", static_cast<std::int64_t>(t))
            .set("issued", r.issued)
            .set("admitted", r.admitted)
            .set("rejected", r.rejected)
            .set("slo_ok", r.slo_ok)
            .set("slo_violated", r.slo_violated)
            .set("goodput_per_sec", r.goodput_per_sec)
            .set("fingerprint", r.fingerprint);
      }
    }
    if (issued[0] != issued[1]) {
      std::fprintf(stderr,
                   "OFFERED-LOAD MISMATCH in %s: off issued %llu != on "
                   "issued %llu\n",
                   sc.name, static_cast<unsigned long long>(issued[0]),
                   static_cast<unsigned long long>(issued[1]));
      ok = false;
    }
    const double factor =
        goodput[0] > 0.0 ? static_cast<double>(issued[0]) * 1e9 /
                               static_cast<double>(active) / goodput[0]
                         : 0.0;
    std::printf("%s: goodput on/off = %.0f/%.0f per sec (x%.2f), offered "
                "%.1fx the OFF goodput\n",
                sc.name, goodput[1], goodput[0],
                goodput[0] > 0.0 ? goodput[1] / goodput[0] : 0.0, factor);
    if (goodput[1] <= goodput[0]) {
      std::fprintf(stderr,
                   "GOODPUT REGRESSION in %s: early rejection ON (%.0f/s) "
                   "not above OFF (%.0f/s)\n",
                   sc.name, goodput[1], goodput[0]);
      ok = false;
    }
  }
  summary.write();
  if (!ok) return 1;
  std::printf("overload: all scenarios deterministic; early rejection "
              "strictly improves goodput-under-SLO\n");
  return 0;
}
