// The benchmark's scenario workloads, run through the simulator's
// public API (ScenarioSpec -> Cluster -> create_vd -> FioJob/PoissonLoad ->
// Engine/ShardedEngine::run_until). One call runs one repetition: set-up,
// the measured window, drain and teardown, each timed on the host clock,
// then the correctness checks and a fingerprint of every simulated output.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RepOptions {
  std::uint64_t seed = 1;
  /// Observability on (metric registry, span tracer and gauge sampler), and
  /// every guest submit call timed on the host clock
  /// (stack.submit_ns_per_io).
  bool traced = false;
  /// Worker threads of a sharded workload (0 = the workload's default).
  int threads = 0;
};

struct RepResult {
  // Host seconds per phase. setup = build + create_vd + prefill.
  double build_s = 0.0;
  double create_vd_s = 0.0;
  double prefill_s = 0.0;
  double run_s = 0.0;       ///< measured window + drain
  double teardown_s = 0.0;  ///< destroying the cluster and engine
  double run_cpu_s = 0.0;   ///< process CPU seconds during the run phase
  int threads = 1;          ///< threads driving the simulation

  // Simulated outputs.
  /// Guest I/O work completed OK in the run phase, in 4 KiB blocks (a
  /// 64 KiB I/O counts 16), so a seed's size mix does not change the unit of
  /// work. Rejected and failed I/Os are not work.
  std::uint64_t run_blocks = 0;
  std::uint64_t attempted = 0;  ///< guest I/Os submitted (+ read-backs)
  std::uint64_t ok = 0;         ///< of those, completed kOk (with the
                                ///< acknowledged bytes, for read-backs)
  std::uint64_t fingerprint = 0;
  /// Every per-layer counter, in a fixed order (all fingerprinted).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  double sim_p50_us = 0.0;  ///< simulated guest latency (histogram bucket)
  double sim_p99_us = 0.0;
  /// Correctness checks that failed (empty = outputs are right).
  std::vector<std::string> errors;

  // Traced repetitions only.
  std::uint64_t submit_calls = 0;
  double submit_s = 0.0;
  std::uint64_t spans = 0;
  double export_s = 0.0;
  std::map<std::string, double> span_self_us_p50;

  double setup_s() const { return build_s + create_vd_s + prefill_s; }
  double wall_s() const { return setup_s() + run_s + teardown_s; }
  std::uint64_t counter(const std::string& name) const;
};

const std::vector<std::string>& workload_names();
bool is_sharded(const std::string& workload);

/// Runs one repetition of `workload`. Aborts on an unknown name.
RepResult run_rep(const std::string& workload, const RepOptions& opt);

/// SOLAR span names whose simulated self time the traced run reports.
const std::vector<std::string>& reported_spans();

}  // namespace perfbench
