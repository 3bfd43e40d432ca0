// Trace tour: follow one 4KB write (and its read-back) through the SOLAR
// data path using the observability subsystem — guest NVMe submit, SA/QoS,
// FPGA pipeline, internal PCIe, per-hop fabric traversal (folded from the
// INT trail), block server, SSD — then render the causal span tree with the
// Fig. 6 SA/FN/BN/SSD split derived from it, and export a Perfetto-loadable
// Chrome trace.
//
//   $ ./build/examples/trace_tour
//   $ # then open trace_tour.trace.json at https://ui.perfetto.dev
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ebs/cluster.h"
#include "ebs/metrics.h"
#include "obs/export.h"
#include "obs/obs.h"

using namespace repro;

namespace {

// Indented tree render of the flight recorder, children ordered by start
// time, each I/O followed by its latency split. Spans reference parents by
// id; id 0 is the root sentinel.
void print_tree(const obs::Tracer& tracer) {
  std::map<std::uint64_t, obs::SpanRecord> by_id;
  std::map<std::uint64_t, std::vector<std::uint64_t>> children;
  tracer.for_each([&](const obs::SpanRecord& r) {
    by_id[r.id] = r;
    children[r.parent].push_back(r.id);
  });
  for (auto& [parent, kids] : children) {
    std::sort(kids.begin(), kids.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                return by_id[a].t0 != by_id[b].t0 ? by_id[a].t0 < by_id[b].t0
                                                  : a < b;
              });
  }

  auto print = [&](auto&& self, std::uint64_t id, int depth) -> void {
    const obs::SpanRecord& r = by_id[id];
    std::string args;
    if (r.arg_name != nullptr) {
      args += std::string("  ") + r.arg_name + "=" + std::to_string(r.arg);
    }
    if (r.arg2_name != nullptr) {
      args += std::string("  ") + r.arg2_name + "=" + std::to_string(r.arg2);
    }
    std::printf("%*s%-14s  [%8.3f us .. %8.3f us]  dur %8.3f us  pid %u%s\n",
                depth * 2, "", r.name, to_us(r.t0), to_us(r.t1),
                to_us(r.t1 - r.t0), r.pid, args.c_str());
    for (std::uint64_t kid : children[id]) self(self, kid, depth + 1);
  };
  for (std::uint64_t root : children[0]) {
    print(print, root, 0);
    if (!std::string_view(by_id[root].name).starts_with("io.")) continue;
    const ebs::Breakdown b = ebs::breakdown(tracer, root);
    std::printf("  => SA %.3f | FN %.3f | BN %.3f | SSD %.3f = %.3f us\n",
                to_us(b.sa), to_us(b.fn), to_us(b.bn), to_us(b.ssd),
                to_us(b.total()));
  }
}

}  // namespace

int main() {
  // 1. Observability first: registry + tracer + sampler behind one config.
  //    A null params.obs (the default) runs the identical simulation dark.
  obs::ObsConfig oc;
  oc.trace_capacity = 1 << 14;
  oc.sample_interval = us(10);
  obs::Obs obs(oc);

  // 2. The quickstart cluster, instrumented: pass the Obs pointer in
  //    ClusterParams and attach the sampler to the engine.
  sim::Engine engine;
  ebs::ClusterParams params;
  params.topo.compute_servers = 2;
  params.topo.storage_servers = 4;
  params.topo.servers_per_rack = 4;
  params.stack = ebs::StackKind::kSolar;
  params.obs = &obs;
  ebs::Cluster cluster(engine, params);
  obs.attach(engine);
  const std::uint64_t vd = cluster.create_vd(1ull << 30);

  // 3. One 4KB write, then read it back — each produces one span tree.
  for (auto op : {transport::OpType::kWrite, transport::OpType::kRead}) {
    transport::IoRequest io;
    io.vd_id = vd;
    io.op = op;
    io.offset = 1 << 20;
    io.len = 4096;
    if (op == transport::OpType::kWrite) {
      io.payload = transport::make_placeholder_blocks(io.offset, io.len, 4096);
    }
    ebs::run_io(engine, cluster, std::move(io));
  }
  engine.run_until(engine.now() + ms(1));

  // 4. Walk the causal tree. The roots are the two io.* spans; under each:
  //    rpc.* (replication round) -> blk.net (one block's network leg, with
  //    fabric.hop children folded from the INT trail) and the server-side
  //    server.cpu / bs.* / ssd.* stages; resp.net is a write's response,
  //    blk.rx a read block's way from the NIC into guest memory.
  std::printf("=== span tree: 4KB write + read on SOLAR (%zu spans) ===\n",
              obs.tracer().size());
  print_tree(obs.tracer());

  // 5. Export artifacts: Chrome trace for ui.perfetto.dev, metric snapshot,
  //    and the sampled time series the probe hook collected along the way.
  obs::export_chrome_trace("trace_tour.trace.json", obs.tracer());
  obs::export_metrics_json("trace_tour.metrics.json", obs.registry());
  obs::export_series_csv("trace_tour.series.csv", obs.registry(),
                         obs.sampler());
  std::printf("\nwrote trace_tour.trace.json (load in ui.perfetto.dev), "
              "trace_tour.metrics.json, trace_tour.series.csv "
              "(%llu samples)\n",
              static_cast<unsigned long long>(obs.sampler().samples_taken()));
  return 0;
}
