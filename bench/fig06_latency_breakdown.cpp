// Figure 6: end-to-end 4KB I/O latency breakdown (SA / FN / BN / SSD),
// median and 95th percentile, for the three stack generations.
//
// Paper anchors: LUNA cuts kernel TCP's FN latency by ~80%; after LUNA the
// SA becomes the bottleneck; SOLAR cuts the SA median by ~95% and the
// write end-to-end by up to 69%, with a residual SA tail from CPU-side
// path selection/CC under load (§4.7).
#include <cstdio>

#include "bench_json.h"
#include "bench_util.h"
#include "obs/export.h"
#include "obs/obs.h"

using namespace repro;
using ebs::StackKind;

namespace {

struct Breakdown {
  Histogram total, sa, fn, bn, ssd;
};

Breakdown measure(StackKind stack, transport::OpType op, int ios) {
  auto c = ebs::build_scenario(
      bench::default_scenario(stack, /*compute=*/2, /*storage=*/8));
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

  // Primed data for reads.
  const std::uint64_t vd = c.vds[0];
  int done = 0;
  for (int i = 0; i < ios; ++i) {
    transport::IoRequest io;
    io.vd_id = vd;
    io.op = op;
    io.offset = (static_cast<std::uint64_t>(rng.next_below(4096))) * 4096;
    io.len = 4096;
    if (op == transport::OpType::kWrite) {
      io.payload = transport::make_placeholder_blocks(io.offset, 4096, 4096);
    }
    bool finished = false;
    eng.at(eng.now(), [&] {
      c.cluster->compute(0).submit_io(std::move(io),
                                      [&](transport::IoResult res) {
                                        finished = true;
                                        ++done;
                                        out.total.record(res.trace.total_ns());
                                        out.sa.record(res.trace.sa_ns);
                                        out.fn.record(res.trace.fn_ns);
                                        out.bn.record(res.trace.bn_ns);
                                        out.ssd.record(res.trace.ssd_ns);
                                      });
    });
    while (!finished && eng.step()) {
    }
    eng.run_until(eng.now() + us(50));
  }
  bg_job.stop();
  self_job.stop();
  return out;
}

void print_quadrant(const char* title, transport::OpType op, double q,
                    bench::RunSummary& summary) {
  std::printf("--- %s ---\n", title);
  TextTable t({"component", "Kernel (us)", "Luna (us)", "Solar (us)"});
  std::map<StackKind, Breakdown> rows;
  for (StackKind s :
       {StackKind::kKernelTcp, StackKind::kLuna, StackKind::kSolar}) {
    rows.emplace(s, measure(s, op, 400));
  }
  auto cell = [&](StackKind s, Histogram Breakdown::*member) {
    return TextTable::num(to_us((rows.at(s).*member).percentile(q)));
  };
  t.add_row({"FN", cell(StackKind::kKernelTcp, &Breakdown::fn),
             cell(StackKind::kLuna, &Breakdown::fn),
             cell(StackKind::kSolar, &Breakdown::fn)});
  t.add_row({"BN", cell(StackKind::kKernelTcp, &Breakdown::bn),
             cell(StackKind::kLuna, &Breakdown::bn),
             cell(StackKind::kSolar, &Breakdown::bn)});
  t.add_row({"SSD", cell(StackKind::kKernelTcp, &Breakdown::ssd),
             cell(StackKind::kLuna, &Breakdown::ssd),
             cell(StackKind::kSolar, &Breakdown::ssd)});
  t.add_row({"SA", cell(StackKind::kKernelTcp, &Breakdown::sa),
             cell(StackKind::kLuna, &Breakdown::sa),
             cell(StackKind::kSolar, &Breakdown::sa)});
  t.add_row({"total", cell(StackKind::kKernelTcp, &Breakdown::total),
             cell(StackKind::kLuna, &Breakdown::total),
             cell(StackKind::kSolar, &Breakdown::total)});
  std::printf("%s", t.render().c_str());

  const std::pair<const char*, Histogram Breakdown::*> components[] = {
      {"fn", &Breakdown::fn},   {"bn", &Breakdown::bn},
      {"ssd", &Breakdown::ssd}, {"sa", &Breakdown::sa},
      {"total", &Breakdown::total}};
  for (const auto& [name, member] : components) {
    summary.row()
        .set("op", op == transport::OpType::kRead ? "read" : "write")
        .set("percentile", q)
        .set("component", name)
        .set("kernel_us",
             to_us((rows.at(StackKind::kKernelTcp).*member).percentile(q)))
        .set("luna_us",
             to_us((rows.at(StackKind::kLuna).*member).percentile(q)))
        .set("solar_us",
             to_us((rows.at(StackKind::kSolar).*member).percentile(q)));
  }

  const double kernel_fn = to_us(rows.at(StackKind::kKernelTcp).fn.percentile(q));
  const double luna_fn = to_us(rows.at(StackKind::kLuna).fn.percentile(q));
  const double luna_sa = to_us(rows.at(StackKind::kLuna).sa.percentile(q));
  const double solar_sa = to_us(rows.at(StackKind::kSolar).sa.percentile(q));
  const double luna_tot = to_us(rows.at(StackKind::kLuna).total.percentile(q));
  const double solar_tot = to_us(rows.at(StackKind::kSolar).total.percentile(q));
  std::printf("shape: LUNA cuts FN by %.0f%% (paper ~80%%); "
              "SOLAR cuts SA by %.0f%% (paper ~95%% median) and e2e vs LUNA "
              "by %.0f%% (paper 20-69%%)\n\n",
              100.0 * (1 - luna_fn / kernel_fn),
              100.0 * (1 - solar_sa / luna_sa),
              100.0 * (1 - solar_tot / luna_tot));
}

// A second, observability-enabled SOLAR pass: one 4KB write and one 4KB
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
  auto& eng = *c.engine;

  const std::uint64_t vd = c.vds[0];
  for (auto op : {transport::OpType::kWrite, transport::OpType::kRead}) {
    transport::IoRequest io;
    io.vd_id = vd;
    io.op = op;
    io.offset = 0;
    io.len = 4096;
    if (op == transport::OpType::kWrite) {
      io.payload = transport::make_placeholder_blocks(0, 4096, 4096);
    }
    bool finished = false;
    eng.at(eng.now(), [&] {
      c.cluster->compute(0).submit_io(std::move(io),
                                      [&](transport::IoResult) {
                                        finished = true;
                                      });
    });
    while (!finished && eng.step()) {
    }
  }
  eng.run_until(eng.now() + ms(1));
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
  print_quadrant("(a) 4KB Read, median", transport::OpType::kRead, 0.50,
                 summary);
  print_quadrant("(b) 4KB Read, 95th percentile", transport::OpType::kRead,
                 0.95, summary);
  print_quadrant("(c) 4KB Write, median", transport::OpType::kWrite, 0.50,
                 summary);
  print_quadrant("(d) 4KB Write, 95th percentile", transport::OpType::kWrite,
                 0.95, summary);
  summary.write();
  export_sample_trace();
  return 0;
}
