// Quickstart: build a small EBS deployment with the SOLAR stack, create a
// virtual disk, write and read it back, and print the per-component latency
// split derived from each I/O's spans — the whole public API in ~70 lines.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "ebs/cluster.h"
#include "ebs/metrics.h"
#include "obs/obs.h"

using namespace repro;

int main() {
  // 1. A simulation engine and a cluster: 2 compute + 4 storage servers in
  //    a Clos fabric, compute side on ALI-DPU running SOLAR, traced.
  obs::Obs obs;
  sim::Engine engine;
  ebs::ClusterParams params;
  params.topo.compute_servers = 2;
  params.topo.storage_servers = 4;
  params.topo.servers_per_rack = 4;
  params.stack = ebs::StackKind::kSolar;
  params.block_server.store_payload = true;  // keep real bytes around
  params.obs = &obs;
  ebs::Cluster cluster(engine, params);

  // 2. A 1 GiB virtual disk, striped in 2 MB segments over the storage
  //    nodes, with a QoS policy.
  const std::uint64_t vd = cluster.create_vd(1ull << 30);
  sa::QosSpec qos;
  qos.iops_limit = 100000;
  qos.bandwidth_limit = 1e9;
  cluster.set_qos(vd, qos);

  // 3. Write 16 KB of real data at offset 1 MiB.
  transport::IoRequest write;
  write.vd_id = vd;
  write.op = transport::OpType::kWrite;
  write.offset = 1 << 20;
  write.len = 16384;
  write.payload = transport::make_placeholder_blocks(write.offset, write.len,
                                                     4096);
  Rng rng(2022);
  for (auto& blk : write.payload) {
    blk.data.resize(blk.len);
    for (auto& b : blk.data) b = static_cast<std::uint8_t>(rng.next());
  }
  auto expected = write.payload;

  const TimeNs write_at = engine.now();
  const transport::IoResult write_result =
      ebs::run_io(engine, cluster, std::move(write));
  const ebs::Breakdown w = ebs::breakdown(obs.tracer(), write_result.span);
  std::printf("WRITE: status=%d, %.1f us end-to-end "
              "(SA %.1f | FN %.1f | BN %.1f | SSD %.1f)\n",
              static_cast<int>(write_result.status),
              to_us(write_result.completed_at - write_at),
              to_us(w.sa), to_us(w.fn), to_us(w.bn), to_us(w.ssd));

  // 4. Read it back and verify every byte survived the trip through the
  //    FPGA pipeline, the fabric, and three replicas.
  transport::IoRequest read;
  read.vd_id = vd;
  read.op = transport::OpType::kRead;
  read.offset = 1 << 20;
  read.len = 16384;
  const TimeNs read_at = engine.now();
  const transport::IoResult read_result =
      ebs::run_io(engine, cluster, std::move(read));

  bool intact = read_result.read_data.size() == expected.size();
  for (std::size_t i = 0; intact && i < expected.size(); ++i) {
    intact = read_result.read_data[i].data == expected[i].data;
  }
  std::printf("READ : status=%d, %.1f us end-to-end, data intact: %s\n",
              static_cast<int>(read_result.status),
              to_us(read_result.completed_at - read_at),
              intact ? "yes" : "NO");
  return intact ? 0 : 1;
}
