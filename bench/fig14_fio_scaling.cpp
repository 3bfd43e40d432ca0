// Figure 14: fio Read with 32 I/O depth under 1-3 DPU CPU cores:
//   (a) 64KB throughput — LUNA/RDMA/SOLAR* pinned under the internal-PCIe
//       goodput ceiling, SOLAR at line rate;
//   (b) 4KB IOPS — SOLAR +46% per core; ~150K IOPS per core (§4.8).
//
// All four configurations run on ALI-DPU (bare-metal hosting): software
// stacks use the DPU's six-core budget restricted to 1-3 cores and pay the
// internal-PCIe crossings (Fig. 10); SOLAR's offloaded data path does not.
#include <cstdio>

#include "bench_json.h"
#include "bench_util.h"

using namespace repro;
using ebs::StackKind;

namespace {

struct Point {
  double mbps = 0;
  double kiops = 0;
};

Point run_case(StackKind stack, int cores, std::uint32_t block_size) {
  auto spec = bench::default_scenario(stack, /*compute=*/1, /*storage=*/16);
  spec.on_dpu = true;
  auto params = ebs::params_from(spec);
  params.dpu.cpu_cores = cores;
  params.host_cpu_cores = cores;  // unused when on_dpu, set for clarity
  auto c = ebs::build_scenario(spec, std::move(params));

  workload::FioConfig cfg;
  cfg.block_size = block_size;
  cfg.iodepth = 32;
  cfg.read_fraction = 1.0;
  auto res = bench::run_fio(*&c, cfg, /*warmup=*/ms(15), /*measure=*/ms(40));
  Point p;
  p.mbps = res.metrics.throughput_mbps(res.measured_ns);
  p.kiops = res.metrics.iops(res.measured_ns) / 1e3;
  return p;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 14: fio Read, 32 depth, 1-3 cores (ALI-DPU hosting)",
      "Fig. 14a (64KB MB/s; PCIe ceiling) / 14b (4KB KIOPS)");

  const StackKind stacks[] = {StackKind::kLuna, StackKind::kRdma,
                              StackKind::kSolarStar, StackKind::kSolar};
  bench::RunSummary summary("fig14",
                            "Fig. 14a (64KB MB/s) / 14b (4KB KIOPS)");

  std::printf("--- (a) throughput of 64KB I/O (MB/s) ---\n");
  TextTable ta({"stack", "1 core", "2 cores", "3 cores"});
  double solar1 = 0, luna1 = 0;
  for (StackKind s : stacks) {
    std::vector<std::string> row{ebs::to_string(s)};
    for (int cores = 1; cores <= 3; ++cores) {
      const Point p = run_case(s, cores, 65536);
      row.push_back(TextTable::num(p.mbps, 0));
      summary.row()
          .set("panel", "a")
          .set("stack", ebs::to_string(s))
          .set("cores", static_cast<std::int64_t>(cores))
          .set("mbps", p.mbps);
      if (cores == 1 && s == StackKind::kSolar) solar1 = p.mbps;
      if (cores == 1 && s == StackKind::kLuna) luna1 = p.mbps;
    }
    ta.add_row(std::move(row));
  }
  std::printf("%s", ta.render().c_str());
  std::printf("internal-PCIe goodput ceiling (two crossings): ~%.0f MB/s; "
              "2x25GE line rate: ~6250 MB/s\n",
              gbps(38) / 8 / 1e6 / 2);
  std::printf("shape: SOLAR 1-core throughput vs LUNA: +%.0f%% "
              "(paper: +78%%)\n\n",
              100.0 * (solar1 / luna1 - 1.0));

  std::printf("--- (b) IOPS of 4KB I/O (K) ---\n");
  TextTable tb({"stack", "1 core", "2 cores", "3 cores"});
  double solar_k1 = 0, luna_k1 = 0;
  for (StackKind s : stacks) {
    std::vector<std::string> row{ebs::to_string(s)};
    for (int cores = 1; cores <= 3; ++cores) {
      const Point p = run_case(s, cores, 4096);
      row.push_back(TextTable::num(p.kiops, 0));
      summary.row()
          .set("panel", "b")
          .set("stack", ebs::to_string(s))
          .set("cores", static_cast<std::int64_t>(cores))
          .set("kiops", p.kiops);
      if (cores == 1 && s == StackKind::kSolar) solar_k1 = p.kiops;
      if (cores == 1 && s == StackKind::kLuna) luna_k1 = p.kiops;
    }
    tb.add_row(std::move(row));
  }
  std::printf("%s", tb.render().c_str());
  std::printf("shape: SOLAR 1-core IOPS vs LUNA (the incumbent): +%.0f%% "
              "(paper: +46%%); ~150K IOPS/core without queueing (§4.8)\n",
              100.0 * (solar_k1 / luna_k1 - 1.0));
  summary.write();
  return 0;
}
