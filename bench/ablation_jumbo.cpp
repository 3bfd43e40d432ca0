// Ablation: 4KB vs 8KB one-block-one-packet (§4.8 "we use 4K bytes
// instead of 8K bytes for the jumbo frame to balance the congestion risk
// and the benefit").
//
// Incast scenario: one compute node reads bulk data striped over every
// storage server simultaneously (fan-in at its ToR ports). Larger frames
// occupy the shallow store-and-forward queues in bigger indivisible
// chunks, raising drop probability and tail latency.
#include <cstdio>

#include "bench_util.h"

using namespace repro;
using ebs::StackKind;

namespace {

struct Row {
  double p50_us, p99_us;
  std::uint64_t drops;
  double retx_rate;
};

Row run(std::uint32_t block_bytes) {
  const auto spec = bench::default_scenario(StackKind::kSolar, 1, 8, 77);
  auto params = ebs::params_from(spec);
  params.solar.block_size = block_bytes;
  params.topo.queue_capacity = 96 * 1024;  // shallow switch buffers
  auto c = ebs::build_scenario(spec, std::move(params));
  auto& eng = *c.engine;

  // Prime, then incast-read 128KB I/Os (split across all storage nodes).
  workload::FioConfig cfg;
  cfg.vd_id = c.vds[0];
  cfg.block_size = 131072;
  cfg.iodepth = 24;
  cfg.read_fraction = 1.0;
  workload::FioJob job(eng, bench::submit_via(*c.cluster, 0), cfg, Rng(4));
  eng.at(0, [&] { job.start(); });
  eng.run_until(ms(25));
  job.metrics().clear();
  const auto drops0 = c.cluster->network().drops().queue_full;
  const auto retx0 = c.cluster->compute(0).solar()->stats().retransmits;
  const auto pkts0 = c.cluster->compute(0).solar()->stats().data_pkts_tx;
  eng.run_until(ms(100));
  job.stop();
  eng.run_until(eng.now() + ms(50));

  Row r;
  r.p50_us = to_us(job.metrics().total().percentile(0.5));
  r.p99_us = to_us(job.metrics().total().percentile(0.99));
  r.drops = c.cluster->network().drops().queue_full - drops0;
  const auto retx =
      c.cluster->compute(0).solar()->stats().retransmits - retx0;
  const auto pkts =
      c.cluster->compute(0).solar()->stats().data_pkts_tx - pkts0;
  r.retx_rate = pkts > 0 ? 100.0 * static_cast<double>(retx) /
                               static_cast<double>(pkts)
                         : 0.0;
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: one-block-one-packet frame size, 4KB vs 8KB (incast)",
      "§4.8 'pros and cons of jumbo frame'");
  TextTable t({"block/packet", "p50 (us)", "p99 (us)", "queue drops",
               "retransmit %"});
  for (std::uint32_t bs : {4096u, 8192u}) {
    const Row r = run(bs);
    char label[16];
    std::snprintf(label, sizeof(label), "%uK", bs / 1024);
    t.add_row({label, TextTable::num(r.p50_us), TextTable::num(r.p99_us),
               TextTable::num(static_cast<std::int64_t>(r.drops)),
               TextTable::num(r.retx_rate, 2)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("expected shape: 8K frames raise incast drops and the p99 "
              "tail on shallow buffers — the reason the paper chose 4K\n");
  return 0;
}
