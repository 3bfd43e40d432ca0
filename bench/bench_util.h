// Shared plumbing for the experiment harnesses: cluster construction per
// stack generation, warmup/measure fio runs, and uniform table printing.
//
// Each bench binary regenerates one of the paper's tables/figures; see
// DESIGN.md §3 for the experiment index and EXPERIMENTS.md for paper-vs-
// measured notes.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/table.h"
#include "ebs/cluster.h"
#include "ebs/metrics.h"
#include "ebs/scenario.h"
#include "workload/fio.h"

namespace repro::bench {

/// The benches' canonical scenario: small fabric, one VD per compute node,
/// placeholder payloads (byte-level work is covered by the unit/property
/// tests and the fig11 campaign).
inline ebs::ScenarioSpec default_scenario(ebs::StackKind stack,
                                          int compute = 2, int storage = 8,
                                          std::uint64_t seed = 42) {
  ebs::ScenarioSpec spec;
  spec.name = "bench";
  spec.compute_nodes = compute;
  spec.storage_nodes = storage;
  spec.stack = stack;
  spec.seed = seed;
  return spec;
}

inline workload::SubmitFn submit_via(ebs::Cluster& cluster, int node) {
  return [&cluster, node](transport::IoRequest io,
                          transport::IoCompleteFn done) {
    cluster.compute(node).submit_io(std::move(io), std::move(done));
  };
}

/// Runs a closed-loop fio job on compute node 0: `warmup` to fill caches
/// and windows, then measures for `measure`. Returns the job's metrics
/// (cleared after warmup) and reports consumed cores over the window.
struct FioRunResult {
  ebs::MetricSink metrics;
  double consumed_cores = 0.0;
  TimeNs measured_ns = 0;
};

inline FioRunResult run_fio(ebs::Scenario& c, workload::FioConfig cfg,
                            TimeNs warmup, TimeNs measure, int node = 0,
                            std::uint64_t seed = 7) {
  auto& eng = *c.engine;
  cfg.vd_id = c.vds[static_cast<std::size_t>(node)];
  workload::FioJob job(eng, submit_via(*c.cluster, node), cfg, Rng(seed));
  eng.at(eng.now(), [&] { job.start(); });
  eng.run_until(eng.now() + warmup);
  job.metrics().clear();
  c.cluster->reset_warmup();
  const TimeNs t0 = eng.now();
  eng.run_until(t0 + measure);
  job.stop();
  FioRunResult res;
  res.metrics = job.metrics();
  res.measured_ns = eng.now() - t0;
  res.consumed_cores = c.cluster->compute(node).consumed_cores(res.measured_ns);
  // Drain stragglers so destructors run on a quiet engine.
  eng.run_until(eng.now() + ms(50));
  return res;
}

/// Order-dependent 64-bit hash step the benches fold their fingerprints
/// with.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xFF51AFD7ED558CCDull;
}

/// `n` deterministic xorshift bytes: the real payload of the cell `seed`
/// names.
inline std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
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

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper reference: %s\n", paper.c_str());
  std::printf("================================================================\n");
}

}  // namespace repro::bench
