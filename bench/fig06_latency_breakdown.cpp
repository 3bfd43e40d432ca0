// Figure 6: end-to-end 4KB I/O latency breakdown (SA / FN / BN / SSD),
// median and 95th percentile, for the three stack generations.
//
// Paper anchors: LUNA cuts kernel TCP's FN latency by ~80%; after LUNA the
// SA becomes the bottleneck; SOLAR cuts the SA median by ~95% and the
// write end-to-end by up to 69%, with a residual SA tail from CPU-side
// path selection/CC under load (§4.7).
#include <cstdio>
#include <tuple>

#include "bench_json.h"
#include "bench_util.h"
#include "obs/export.h"
#include "obs/obs.h"

using namespace repro;
using ebs::StackKind;

namespace {

struct Breakdown {
  Histogram total, sa, fn, bn, ssd;

  void add(const ebs::Breakdown& b) {
    total.record(b.total());
    sa.record(b.sa);
    fn.record(b.fn);
    bn.record(b.bn);
    ssd.record(b.ssd);
  }
};

// One 4 KB I/O on compute node 0, run to completion.
transport::IoResult probe(ebs::Scenario& c, transport::OpType op,
                          std::uint64_t offset) {
  transport::IoRequest io;
  io.vd_id = c.vds[0];
  io.op = op;
  io.offset = offset;
  io.len = 4096;
  if (op == transport::OpType::kWrite) {
    io.payload = transport::make_placeholder_blocks(offset, 4096, 4096);
  }
  return ebs::run_io(*c.engine, *c.cluster, std::move(io));
}

Breakdown measure(StackKind stack, transport::OpType op, int ios) {
  // Traced: probes run one at a time and each is split from its spans as it
  // completes, so the ring only has to outlast one probe (else it throws).
  obs::ObsConfig oc;
  oc.trace_capacity = 1 << 14;
  oc.sample_interval = 0;
  obs::Obs obs(oc);
  auto c = ebs::build_scenario(
      bench::default_scenario(stack, /*compute=*/2, /*storage=*/8), &obs);
  auto& eng = *c.engine;
  Breakdown out;
  Rng rng(5);

  // Background load on the probe node itself *and* its sibling, so the
  // percentiles reflect a loaded production server: the software SA
  // queues behind neighbour I/O on shared cores — the effect that made SA
  // the post-LUNA bottleneck (§3.3) — while SOLAR's hardware path doesn't.
  workload::FioConfig bg;
  bg.vd_id = c.vds[1];
  bg.iodepth = 8;
  bg.block_size = 0;  // mixed sizes
  bg.read_fraction = 0.25;
  workload::FioJob bg_job(eng, bench::submit_via(*c.cluster, 1), bg, Rng(9));
  workload::PoissonConfig self;
  self.vd_id = c.vds[0];
  self.iops = 80000;
  self.block_size = 16384;
  self.read_fraction = 0.25;
  workload::PoissonLoad self_job(eng, bench::submit_via(*c.cluster, 0), self,
                                 Rng(10));
  eng.at(0, [&] {
    bg_job.start();
    self_job.start();
  });
  eng.run_until(ms(10));

  for (int i = 0; i < ios; ++i) {
    const std::uint64_t offset = rng.next_below(4096) * 4096;
    out.add(ebs::breakdown(obs.tracer(), probe(c, op, offset).span));
    eng.run_until(eng.now() + us(50));
  }
  bg_job.stop();
  self_job.stop();
  return out;
}

using Rows = std::map<StackKind, Breakdown>;

// One measurement per stack serves both percentiles of an op's quadrants.
Rows measure_stacks(transport::OpType op) {
  Rows rows;
  for (StackKind s :
       {StackKind::kKernelTcp, StackKind::kLuna, StackKind::kSolar}) {
    rows.emplace(s, measure(s, op, 400));
  }
  return rows;
}

void print_quadrant(const char* title, transport::OpType op, double q,
                    const Rows& rows, bench::RunSummary& summary) {
  auto us = [&](StackKind s, Histogram Breakdown::*member) {
    return to_us((rows.at(s).*member).percentile(q));
  };
  // Table row, JSON key and histogram of each component.
  const std::tuple<const char*, const char*, Histogram Breakdown::*>
      components[] = {{"FN", "fn", &Breakdown::fn},
                      {"BN", "bn", &Breakdown::bn},
                      {"SSD", "ssd", &Breakdown::ssd},
                      {"SA", "sa", &Breakdown::sa},
                      {"total", "total", &Breakdown::total}};
  std::printf("--- %s ---\n", title);
  TextTable t({"component", "Kernel (us)", "Luna (us)", "Solar (us)"});
  for (const auto& [row, key, member] : components) {
    t.add_row({row, TextTable::num(us(StackKind::kKernelTcp, member)),
               TextTable::num(us(StackKind::kLuna, member)),
               TextTable::num(us(StackKind::kSolar, member))});
    summary.row()
        .set("op", op == transport::OpType::kRead ? "read" : "write")
        .set("percentile", q)
        .set("component", key)
        .set("kernel_us", us(StackKind::kKernelTcp, member))
        .set("luna_us", us(StackKind::kLuna, member))
        .set("solar_us", us(StackKind::kSolar, member));
  }
  std::printf("%s", t.render().c_str());

  std::printf("shape: LUNA cuts FN by %.0f%% (paper ~80%%); "
              "SOLAR cuts SA by %.0f%% (paper ~95%% median) and e2e vs LUNA "
              "by %.0f%% (paper 20-69%%)\n\n",
              100.0 * (1 - us(StackKind::kLuna, &Breakdown::fn) /
                               us(StackKind::kKernelTcp, &Breakdown::fn)),
              100.0 * (1 - us(StackKind::kSolar, &Breakdown::sa) /
                               us(StackKind::kLuna, &Breakdown::sa)),
              100.0 * (1 - us(StackKind::kSolar, &Breakdown::total) /
                               us(StackKind::kLuna, &Breakdown::total)));
}

// A separate SOLAR pass without background load: one 4KB write and one 4KB
// read on an instrumented cluster, exported as a Perfetto-loadable Chrome
// trace (guest -> SA/QoS -> FPGA -> fabric hops -> block server -> SSD)
// plus the metrics snapshot. This is the PR artifact CI uploads.
void export_sample_trace() {
  obs::ObsConfig oc;
  oc.trace_capacity = 1 << 15;
  obs::Obs obs(oc);
  auto c = ebs::build_scenario(
      bench::default_scenario(StackKind::kSolar, /*compute=*/2, /*storage=*/8),
      &obs);
  for (auto op : {transport::OpType::kWrite, transport::OpType::kRead}) {
    probe(c, op, 0);
  }
  c.engine->run_until(c.engine->now() + ms(1));
  if (obs::export_chrome_trace("fig06_solar.trace.json", obs.tracer())) {
    std::printf("wrote fig06_solar.trace.json (%zu spans; load in "
                "ui.perfetto.dev)\n",
                obs.tracer().size());
  }
  obs::export_metrics_json("fig06_solar.metrics.json", obs.registry());
}

}  // namespace

int main() {
  bench::print_header("Figure 6: 4KB I/O latency breakdown by component",
                      "Fig. 6 a-d (Kernel/Luna/Solar; SA/FN/BN/SSD)");
  bench::RunSummary summary("fig06",
                            "Fig. 6 a-d (Kernel/Luna/Solar; SA/FN/BN/SSD)");
  const Rows reads = measure_stacks(transport::OpType::kRead);
  print_quadrant("(a) 4KB Read, median", transport::OpType::kRead, 0.50,
                 reads, summary);
  print_quadrant("(b) 4KB Read, 95th percentile", transport::OpType::kRead,
                 0.95, reads, summary);
  const Rows writes = measure_stacks(transport::OpType::kWrite);
  print_quadrant("(c) 4KB Write, median", transport::OpType::kWrite, 0.50,
                 writes, summary);
  print_quadrant("(d) 4KB Write, 95th percentile", transport::OpType::kWrite,
                 0.95, writes, summary);
  summary.write();
  export_sample_trace();
  return 0;
}
