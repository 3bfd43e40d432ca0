// sim_fuzz: FoundationDB-style simulation fuzzer over the chaos subsystem.
//
// Swarms random (seed, plan, workload) triples across the four stack
// generations (kernel-TCP, LUNA, SOLAR*, SOLAR), runs each under the full
// oracle board (exactly-once, durability/CRC, recovery SLO, conservation,
// and the SOLAR hang oracle whenever the drawn plan is hang-safe), and on
// any violation greedily minimizes the fault schedule and dumps a
// replayable JSON plan plus a Perfetto-loadable trace of the failing run.
//
// Modes:
//   --smoke            100-run seeded sweep (25 seeds x 4 stacks) with
//                      periodic bit-determinism double-runs; exit 0 iff no
//                      violations. CI runs this, time-boxed.
//   --runs N           same sweep with N runs.
//   --plant-bug        validation: disable SOLAR path failover (the
//                      planted bug) and hunt it with stretched plans; exit
//                      0 iff the hang oracle catches it and the minimized
//                      repro still fails deterministically.
//   --replay PLAN --scenario SPEC
//                      re-run a dumped plan on the dumped scenario
//                      (--hang-oracle/--planted-bug select the oracle and
//                      the build); exit 0 iff clean.
//
// Everything a run simulates — stack, seed, topology and the workload
// knobs drawn from the seed — lives in its `ebs::ScenarioSpec`, which the
// repro bundle dumps beside the plan; the other harness knobs are fixed or
// named by the printed flags. Both files keep every bit (doubles at full
// precision, the seed as an exact integer), so the two repro files plus the
// printed command line fully determine the failing run. A hand-trimmed
// SPEC takes `ebs::ScenarioSpec`'s defaults for absent keys, not the
// harness's.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"
#include "chaos/injector.h"
#include "chaos/minimize.h"
#include "ebs/cluster.h"
#include "ebs/scenario.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "sim/engine.h"

using namespace repro;
using chaos::FaultPlan;
using chaos::HarnessConfig;
using chaos::RunReport;
using ebs::StackKind;

namespace {

constexpr StackKind kStacks[] = {
    StackKind::kKernelTcp,
    StackKind::kLuna,
    StackKind::kSolarStar,
    StackKind::kSolar,
};

std::string stack_name(StackKind s) { return stack::cli_string(s); }

chaos::TopologyShape shape_for(StackKind stack) {
  // One throwaway cluster per stack tells the generator what exists,
  // built from the harness's own declarative scenario.
  ebs::ScenarioSpec spec = chaos::default_harness_spec();
  spec.stack = stack;
  sim::Engine eng;
  ebs::Cluster cluster(eng, ebs::params_from(spec));
  return chaos::Injector(cluster).shape();
}

struct FuzzOptions {
  int runs = 100;
  std::uint64_t seed_base = 1000;
  int determinism_every = 10;  ///< double-run every Nth run
  double max_seconds = 0.0;    ///< 0 = no wall-clock box
  std::string out_dir = ".";
  bool plant_bug = false;
  /// Worker threads for the sweep. Each run's config is a pure function of
  /// its index, results are reported in index order, and minimization runs
  /// serially afterwards — so every `--jobs N` finds the same failures.
  int jobs = 1;
};

std::string out_path(const FuzzOptions& opt, const char* kind,
                     const char* tag) {
  return opt.out_dir + "/simfuzz_" + kind + "_" + tag + ".json";
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text << "\n";
  f.close();
  return !f.fail();
}

/// Writes the repro bundle (plan, scenario, trace) into `--out`, creating
/// the directory. Prints the paths only once all three are on disk; false
/// (with the reason on stderr) otherwise.
bool dump_repro(const FuzzOptions& opt, const HarnessConfig& cfg,
                const FaultPlan& min_plan, const char* tag) {
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string plan_path = out_path(opt, "repro", tag);
  const std::string spec_path = out_path(opt, "scenario", tag);
  const std::string trace_path = out_path(opt, "trace", tag);

  // Trace of the minimized failing run, Perfetto-loadable.
  obs::Obs obs;
  HarnessConfig traced = cfg;
  traced.plan = min_plan;
  traced.obs = &obs;
  const RunReport r = chaos::run_chaos(traced);

  if (!write_text(plan_path, min_plan.to_json()) ||
      !write_text(spec_path, cfg.spec.to_json()) ||
      !obs::export_chrome_trace(trace_path, obs.tracer())) {
    std::fprintf(stderr,
                 "sim_fuzz: cannot write a repro bundle into %s%s%s\n",
                 opt.out_dir.c_str(), ec ? ": " : "",
                 ec ? ec.message().c_str() : "");
    return false;
  }
  std::printf("  repro plan : %s\n", plan_path.c_str());
  std::printf("  trace      : %s (violations in traced run: %zu)\n",
              trace_path.c_str(), r.violations.size());
  std::printf("  replay with: sim_fuzz --replay %s --scenario %s%s%s\n",
              plan_path.c_str(), spec_path.c_str(),
              cfg.oracle.hang_oracle ? " --hang-oracle" : "",
              cfg.disable_solar_failover ? " --planted-bug" : "");
  return true;
}

void print_violations(const RunReport& r) {
  constexpr std::size_t kMaxShown = 10;
  for (std::size_t i = 0; i < r.violations.size() && i < kMaxShown; ++i) {
    const chaos::Violation& v = r.violations[i];
    std::printf("  [%s] %s (t=%.3f ms)\n", v.oracle.c_str(), v.detail.c_str(),
                v.at / 1e6);
  }
  if (r.violations.size() > kMaxShown) {
    std::printf("  ... and %zu more violations\n",
                r.violations.size() - kMaxShown);
  }
}

/// The (stack, seed, plan, workload) triple of sweep run `i` — a pure
/// function of the options and index, so any worker may run it.
HarnessConfig config_for(const FuzzOptions& opt, int i,
                         const chaos::TopologyShape shapes[4]) {
  const int si = i % 4;
  const StackKind stack = kStacks[si];
  const std::uint64_t seed = opt.seed_base + static_cast<std::uint64_t>(i);

  Rng rng(seed * 6364136223846793005ull + 1442695040888963407ull);
  chaos::GeneratorConfig gc;
  gc.window = ms(500);
  gc.min_events = 1;
  gc.max_events = 4;
  const FaultPlan plan = chaos::generate_plan(rng, gc, shapes[si]);

  HarnessConfig cfg;
  cfg.spec.stack = stack;
  cfg.spec.seed = seed;
  cfg.plan = plan;
  cfg.active = ms(600);
  // The workload leg of the triple, drawn from the same stream.
  ebs::WorkloadSpec& w = cfg.spec.workload;
  w.read_fraction = 0.2 + 0.15 * static_cast<double>(rng.next_below(4));
  w.block_size = 4096u << rng.next_below(3);  // 4K / 8K / 16K
  w.poisson_iops = 800.0 + 400.0 * static_cast<double>(rng.next_below(4));
  cfg.oracle.hang_oracle = chaos::hang_oracle_applicable(stack, plan);
  return cfg;
}

/// Minimizes + dumps one failing run (always called serially).
void handle_failure(const FuzzOptions& opt, int i, const HarnessConfig& cfg,
                    const RunReport& r, bool deterministic) {
  std::printf("[sim_fuzz] FAIL run %d: stack=%s seed=%llu plan=%zu events%s\n",
              i, stack_name(cfg.spec.stack).c_str(),
              static_cast<unsigned long long>(cfg.spec.seed),
              cfg.plan.events.size(),
              deterministic ? "" : " (NON-DETERMINISTIC)");
  print_violations(r);
  if (!r.ok()) {
    const chaos::MinimizeResult min =
        chaos::minimize_plan(cfg.plan, [&cfg](const FaultPlan& candidate) {
          HarnessConfig probe = cfg;
          probe.plan = candidate;
          return !chaos::run_chaos(probe).ok();
        });
    std::printf("  minimized: %zu -> %zu events (%d probes)\n",
                cfg.plan.events.size(), min.plan.events.size(), min.probes);
    char tag[64];
    std::snprintf(tag, sizeof tag, "%s_seed%llu",
                  stack_name(cfg.spec.stack).c_str(),
                  static_cast<unsigned long long>(cfg.spec.seed));
    dump_repro(opt, cfg, min.plan, tag);
  }
}

/// The sweep: `--jobs` workers pull run indices from an atomic counter and
/// buffer their outcomes; every run's config is derived from its index, so
/// the work partition cannot change any result. Reporting, minimization and
/// repro dumps happen serially afterwards, in index order.
int run_sweep(const FuzzOptions& opt) {
  chaos::TopologyShape shapes[4];
  for (int s = 0; s < 4; ++s) shapes[s] = shape_for(kStacks[s]);

  struct Outcome {
    bool ran = false;
    bool deterministic = true;
    HarnessConfig cfg;
    RunReport report;
  };
  std::vector<Outcome> outcomes(static_cast<std::size_t>(opt.runs));
  std::atomic<int> next{0};
  std::atomic<bool> boxed{false};
  const auto t0 = std::chrono::steady_clock::now();

  auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= opt.runs) return;
      if (opt.max_seconds > 0) {
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        if (elapsed > opt.max_seconds) {
          boxed.store(true, std::memory_order_relaxed);
          return;
        }
      }
      Outcome& out = outcomes[static_cast<std::size_t>(i)];
      out.cfg = config_for(opt, i, shapes);
      out.report = chaos::run_chaos(out.cfg);
      if (opt.determinism_every > 0 && i % opt.determinism_every == 0) {
        const RunReport again = chaos::run_chaos(out.cfg);
        out.deterministic = again.signature() == out.report.signature();
      }
      out.ran = true;
    }
  };
  std::vector<std::thread> pool;
  for (int j = 0; j < opt.jobs; ++j) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();

  int failures = 0;
  int determinism_checks = 0;
  int completed = 0;
  std::uint64_t total_ios = 0;
  std::uint64_t total_faults = 0;
  std::uint64_t hang_oracle_runs = 0;
  for (int i = 0; i < opt.runs; ++i) {
    const Outcome& out = outcomes[static_cast<std::size_t>(i)];
    if (!out.ran) continue;  // wall-clock box hit before this index
    ++completed;
    total_ios += out.report.ios_completed;
    total_faults += out.report.faults_applied;
    hang_oracle_runs += out.cfg.oracle.hang_oracle ? 1 : 0;
    if (opt.determinism_every > 0 && i % opt.determinism_every == 0) {
      ++determinism_checks;
    }
    if (!out.report.ok() || !out.deterministic) {
      ++failures;
      handle_failure(opt, i, out.cfg, out.report, out.deterministic);
    }
  }
  if (boxed.load()) {
    std::printf("[sim_fuzz] wall-clock box (%.0fs) hit after %d runs\n",
                opt.max_seconds, completed);
  }

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf(
      "[sim_fuzz] %d runs (%d with hang oracle armed) across %d jobs, %llu "
      "I/Os, %llu faults injected, %d determinism double-runs, %d failures, "
      "%.1fs\n",
      completed, static_cast<int>(hang_oracle_runs), opt.jobs,
      static_cast<unsigned long long>(total_ios),
      static_cast<unsigned long long>(total_faults), determinism_checks,
      failures, elapsed);
  return failures == 0 ? 0 : 1;
}

/// Planted-bug hunt: SOLAR path failover disabled, stretched silent /
/// blackhole faults on switches. The hang oracle (armed — these plans are
/// hang-safe for a *healthy* SOLAR, that is Table 2's claim) must fire,
/// and the minimized repro must fail deterministically.
int run_plant_bug(const FuzzOptions& opt) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::uint64_t seed = opt.seed_base + static_cast<std::uint64_t>(attempt);
    Rng rng(seed * 0x2545F4914F6CDD1Dull + 1);

    FaultPlan plan;
    plan.name = "plant-bug-hunt";
    const int n_events = 1 + static_cast<int>(rng.next_below(2));
    for (int k = 0; k < n_events; ++k) {
      chaos::FaultEvent e;
      e.at = ms(10) + static_cast<TimeNs>(rng.next_below(
                          static_cast<std::uint64_t>(ms(100))));
      e.duration = ms(1500);  // stretched past the 1 s hang threshold
      e.kind = rng.next_below(2) == 0 ? chaos::FaultKind::kDeviceSilent
                                      : chaos::FaultKind::kBlackhole;
      if (e.kind == chaos::FaultKind::kBlackhole) {
        e.magnitude = 0.4 + 0.4 * rng.uniform01();
      }
      static constexpr chaos::TargetKind kTiers[] = {
          chaos::TargetKind::kComputeTor, chaos::TargetKind::kStorageTor,
          chaos::TargetKind::kComputeSpine, chaos::TargetKind::kStorageSpine,
      };
      e.target.kind = kTiers[rng.next_below(4)];
      e.target.index = static_cast<int>(rng.next_below(4));
      plan.events.push_back(e);
    }

    HarnessConfig cfg;
    cfg.spec.stack = StackKind::kSolar;
    cfg.spec.seed = seed;
    cfg.plan = plan;
    cfg.active = ms(1700);
    cfg.oracle.hang_oracle = true;
    cfg.disable_solar_failover = true;

    // A healthy SOLAR must shrug this exact plan off — otherwise the
    // "catch" below would prove nothing about the planted bug.
    HarnessConfig healthy = cfg;
    healthy.disable_solar_failover = false;
    if (!chaos::run_chaos(healthy).ok()) continue;

    const RunReport buggy = chaos::run_chaos(cfg);
    if (buggy.ok()) continue;  // faults missed the pinned paths; redraw

    std::printf("[sim_fuzz] planted bug caught at attempt %d (seed %llu):\n",
                attempt, static_cast<unsigned long long>(seed));
    print_violations(buggy);

    const RunReport again = chaos::run_chaos(cfg);
    if (again.signature() != buggy.signature()) {
      std::printf("[sim_fuzz] ERROR: failing run not bit-reproducible\n");
      return 1;
    }

    const chaos::MinimizeResult min =
        chaos::minimize_plan(plan, [&cfg](const FaultPlan& candidate) {
          HarnessConfig probe = cfg;
          probe.plan = candidate;
          return !chaos::run_chaos(probe).ok();
        });
    HarnessConfig replay = cfg;
    replay.plan = min.plan;
    const RunReport min_a = chaos::run_chaos(replay);
    const RunReport min_b = chaos::run_chaos(replay);
    if (min_a.ok() || min_a.signature() != min_b.signature()) {
      std::printf("[sim_fuzz] ERROR: minimized plan does not fail "
                  "deterministically\n");
      return 1;
    }
    std::printf("  minimized: %zu -> %zu events (%d probes), still fails "
                "deterministically\n",
                plan.events.size(), min.plan.events.size(), min.probes);
    return dump_repro(opt, cfg, min.plan, "planted_bug") ? 0 : 1;
  }
  std::printf("[sim_fuzz] ERROR: planted bug never caught in 16 attempts\n");
  return 1;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "sim_fuzz: cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

int run_replay(const std::string& plan_file, const std::string& spec_file,
               bool hang_oracle, bool planted_bug) {
  std::string plan_text, spec_text, err;
  if (!read_file(plan_file, &plan_text) || !read_file(spec_file, &spec_text)) {
    return 2;
  }
  HarnessConfig cfg;
  if (!chaos::plan_from_json(plan_text, &cfg.plan, &err)) {
    std::fprintf(stderr, "sim_fuzz: bad plan %s: %s\n", plan_file.c_str(),
                 err.c_str());
    return 2;
  }
  if (!ebs::scenario_from_json(spec_text, &cfg.spec, &err)) {
    std::fprintf(stderr, "sim_fuzz: bad scenario %s: %s\n",
                 spec_file.c_str(), err.c_str());
    return 2;
  }
  cfg.active = planted_bug ? ms(1700) : ms(600);
  cfg.oracle.hang_oracle = hang_oracle;
  cfg.disable_solar_failover = planted_bug;
  const RunReport r = chaos::run_chaos(cfg);
  std::printf("[sim_fuzz] replay %s: stack=%s seed=%llu -> %s (%s)\n",
              plan_file.c_str(), stack_name(cfg.spec.stack).c_str(),
              static_cast<unsigned long long>(cfg.spec.seed),
              r.ok() ? "CLEAN" : "VIOLATIONS", r.signature().c_str());
  print_violations(r);
  return r.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions opt;
  std::string replay_file;
  std::string replay_scenario;
  bool replay_hang_oracle = false;
  bool mode_plant = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sim_fuzz: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--smoke") {
      opt.runs = 100;
    } else if (a == "--runs") {
      opt.runs = std::atoi(next());
    } else if (a == "--seed-base") {
      opt.seed_base = std::strtoull(next(), nullptr, 10);
    } else if (a == "--max-seconds") {
      opt.max_seconds = std::atof(next());
    } else if (a == "--out") {
      opt.out_dir = next();
    } else if (a == "--jobs") {
      opt.jobs = std::atoi(next());
      if (opt.jobs < 1) opt.jobs = 1;
    } else if (a == "--plant-bug") {
      mode_plant = true;
    } else if (a == "--replay") {
      replay_file = next();
    } else if (a == "--scenario") {
      replay_scenario = next();
    } else if (a == "--hang-oracle") {
      replay_hang_oracle = true;
    } else if (a == "--planted-bug") {
      opt.plant_bug = true;  // replay against the planted-bug build
    } else {
      std::fprintf(stderr,
                   "usage: sim_fuzz [--smoke | --runs N] [--jobs N]\n"
                   "                [--seed-base S]\n"
                   "                [--max-seconds S] [--out DIR] [--plant-bug]\n"
                   "                [--replay PLAN --scenario SPEC\n"
                   "                 [--hang-oracle] [--planted-bug]]\n");
      return 2;
    }
  }

  if (replay_file.empty() != replay_scenario.empty()) {
    std::fprintf(stderr, "sim_fuzz: --replay and --scenario go together\n");
    return 2;
  }
  if (!replay_file.empty()) {
    return run_replay(replay_file, replay_scenario, replay_hang_oracle,
                      opt.plant_bug);
  }
  if (mode_plant) return run_plant_bug(opt);
  return run_sweep(opt);
}
