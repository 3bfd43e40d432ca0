// Fleet-scale benchmark: a 1 000-node, 100 000-VD EBS fleet on the sharded
// parallel engine, swept across worker thread counts.
//
// The scenario is the paper's deployment shape at cluster scale: 500
// compute + 500 storage servers in a two-pod Clos, 100 K virtual disks
// striped 4-wide, and an open-loop Poisson stream per compute node whose
// submits round-robin the node's VD slice so every VD carries traffic.
// Each thread count re-runs the identical scenario and the benchmark
// asserts the run fingerprint (executed events, end time, per-node
// completion counts) is bit-identical — the determinism contract — before
// reporting wall-clock, events/s and speedup vs one thread into
// BENCH_fleet_scale.json.
//
// Speedup is hardware-honest: on a single-CPU container every thread count
// measures the same core plus synchronization overhead, so the interesting
// column there is determinism, not scaling (see EXPERIMENTS.md).
//
// --smoke shrinks the fleet for CI (seconds, not minutes).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "ebs/cluster.h"
#include "workload/fio.h"

namespace {

using namespace repro;
using bench::mix;
using transport::IoCompleteFn;
using transport::IoRequest;
using transport::IoResult;

struct Options {
  int nodes = 1000;       ///< total servers, split evenly compute/storage
  int vds = 100000;
  int shards = 8;
  std::vector<int> threads = {1, 2, 8};
  TimeNs active = ms(20);
  double iops_per_node = 200.0;
  std::uint64_t vd_size = 256ull << 20;
};

struct RunResult {
  std::uint64_t executed = 0;
  TimeNs end_time = 0;
  std::uint64_t ios_completed = 0;
  std::uint64_t fingerprint = 0;
  double wall_s = 0.0;
};

RunResult run_fleet(const Options& o, int threads) {
  sim::ShardedEngine se(o.shards, threads);
  ebs::ClusterParams p;
  p.topo.compute_servers = o.nodes / 2;
  p.topo.storage_servers = o.nodes - o.nodes / 2;
  p.topo.servers_per_rack = 8;
  p.topo.spines_per_pod = 4;
  p.topo.core_switches = 4;
  // Coarser fabric propagation = coarser conservative lookahead: fleet runs
  // trade a little wire realism for an order of magnitude fewer epochs.
  p.topo.fabric_prop = us(2);
  p.stack = ebs::StackKind::kSolar;
  p.seed = 42;
  p.vd_stripe_width = 4;
  ebs::Cluster cluster(se, p);

  const std::uint64_t first_vd = cluster.create_vd(o.vd_size);
  for (int v = 1; v < o.vds; ++v) cluster.create_vd(o.vd_size);

  const int ncompute = cluster.num_compute();
  const std::uint64_t span =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(o.vds) /
                                     static_cast<std::uint64_t>(ncompute));
  struct NodeLoad {
    std::unique_ptr<workload::PoissonLoad> gen;
    std::uint64_t next_vd = 0;
    std::uint64_t completed = 0;
  };
  std::vector<NodeLoad> loads(static_cast<std::size_t>(ncompute));

  Rng rng(777);
  for (int i = 0; i < ncompute; ++i) {
    // Round-robin the node's VD slice: the generator picks offsets for one
    // vd_size (all VDs are equal-sized), the wrapper retargets the vd id.
    const std::uint64_t base =
        first_vd + static_cast<std::uint64_t>(i) * span;
    auto submit = [&cluster, &loads, i, base, span](IoRequest io,
                                                    IoCompleteFn done) {
      NodeLoad& nl = loads[static_cast<std::size_t>(i)];
      io.vd_id = base + (nl.next_vd++ % span);
      cluster.compute(i).submit_io(
          std::move(io),
          [&loads, i, done = std::move(done)](IoResult res) {
            ++loads[static_cast<std::size_t>(i)].completed;
            done(std::move(res));
          });
    };
    workload::PoissonConfig pc;
    pc.vd_id = base;
    pc.vd_size = o.vd_size;
    pc.iops = o.iops_per_node;
    pc.read_fraction = 0.7;
    pc.block_size = 4096;
    sim::ShardScope scope(cluster.compute_shard(i));
    loads[static_cast<std::size_t>(i)].gen =
        std::make_unique<workload::PoissonLoad>(
            cluster.engine(), submit, pc,
            rng.fork(static_cast<std::uint64_t>(i)));
  }

  const auto wall0 = std::chrono::steady_clock::now();
  for (int i = 0; i < ncompute; ++i) {
    sim::ShardScope scope(cluster.compute_shard(i));
    sim::Engine& he = cluster.engine();
    he.at(he.now(), [&loads, i] {
      loads[static_cast<std::size_t>(i)].gen->start();
    });
  }
  se.run_until(o.active);
  for (int i = 0; i < ncompute; ++i) {
    sim::ShardScope scope(cluster.compute_shard(i));
    loads[static_cast<std::size_t>(i)].gen->stop();
  }
  se.run();  // drain outstanding I/Os
  const auto wall1 = std::chrono::steady_clock::now();

  RunResult r;
  r.executed = se.executed();
  r.end_time = se.now();
  r.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  std::uint64_t h = mix(r.executed, static_cast<std::uint64_t>(r.end_time));
  for (const NodeLoad& nl : loads) {
    r.ios_completed += nl.completed;
    h = mix(h, nl.completed);
  }
  h = mix(h, cluster.network().drops_total().total());
  r.fingerprint = h;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      o.nodes = 40;
      o.vds = 2000;
      o.shards = 4;
      o.threads = {1, 2};
      o.active = ms(2);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      o.threads.clear();
      for (char* tok = std::strtok(argv[++i], ","); tok != nullptr;
           tok = std::strtok(nullptr, ",")) {
        o.threads.push_back(std::atoi(tok));
      }
    } else if (std::strcmp(argv[i], "--vds") == 0 && i + 1 < argc) {
      o.vds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      o.nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--active-ms") == 0 && i + 1 < argc) {
      o.active = ms(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--threads 1,2,8] [--vds N] "
                   "[--nodes N] [--active-ms N]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf(
      "fleet_scale: %d nodes, %d vds, %d shards, active %lld ms\n",
      o.nodes, o.vds, o.shards,
      static_cast<long long>(o.active / 1000000));
  std::printf("%8s %14s %12s %10s %10s %18s\n", "threads", "executed",
              "ios_done", "wall_s", "speedup", "fingerprint");

  repro::bench::RunSummary summary("fleet_scale",
                                   "SIGCOMM'22 Luna/Solar, fleet scale");
  double wall_1t = 0.0;
  std::uint64_t want_fingerprint = 0;
  bool first = true;
  for (int t : o.threads) {
    const RunResult r = run_fleet(o, t);
    if (first) {
      wall_1t = r.wall_s;
      want_fingerprint = r.fingerprint;
      first = false;
    } else if (r.fingerprint != want_fingerprint) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: fingerprint %016llx at %d "
                   "threads != %016llx\n",
                   static_cast<unsigned long long>(r.fingerprint), t,
                   static_cast<unsigned long long>(want_fingerprint));
      return 1;
    }
    const double speedup = r.wall_s > 0.0 ? wall_1t / r.wall_s : 0.0;
    std::printf("%8d %14llu %12llu %10.2f %10.2f   %016llx\n", t,
                static_cast<unsigned long long>(r.executed),
                static_cast<unsigned long long>(r.ios_completed), r.wall_s,
                speedup, static_cast<unsigned long long>(r.fingerprint));
    summary.row()
        .set("threads", static_cast<std::int64_t>(t))
        .set("shards", static_cast<std::int64_t>(o.shards))
        .set("nodes", static_cast<std::int64_t>(o.nodes))
        .set("vds", static_cast<std::int64_t>(o.vds))
        .set("executed", r.executed)
        .set("end_time_ns", static_cast<std::int64_t>(r.end_time))
        .set("ios_completed", r.ios_completed)
        .set("wall_s", r.wall_s)
        .set("events_per_sec",
             r.wall_s > 0.0 ? static_cast<double>(r.executed) / r.wall_s
                            : 0.0)
        .set("speedup_vs_1t", speedup)
        .set("fingerprint", r.fingerprint);
  }
  summary.write();
  std::printf("determinism: fingerprints identical across all %zu thread "
              "counts\n",
              o.threads.size());
  return 0;
}
