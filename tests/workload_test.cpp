#include <gtest/gtest.h>

#include "workload/fio.h"
#include "workload/size_dist.h"

namespace repro::workload {
namespace {

TEST(SizeDist, WeightsNormalizedAndSamplesValid) {
  auto dist = SizeDist::io_sizes();
  double total = 0;
  for (const auto& p : dist.points()) total += p.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto s = dist.sample(rng);
    bool valid = false;
    for (const auto& p : dist.points()) valid |= (p.bytes == s);
    EXPECT_TRUE(valid);
  }
}

TEST(SizeDist, CdfMatchesPaperShape) {
  auto dist = SizeDist::io_sizes();
  // Fig. 5: ~40% of RPCs are up to 4K; everything <= 128K.
  EXPECT_NEAR(dist.cdf(4096), 0.40, 0.02);
  EXPECT_GE(dist.cdf(16384), 0.65);
  EXPECT_DOUBLE_EQ(dist.cdf(131072), 1.0);
  EXPECT_DOUBLE_EQ(dist.cdf(1024), 0.0);
}

TEST(SizeDist, SampleFrequenciesMatchWeights) {
  auto dist = SizeDist::io_sizes();
  Rng rng(2);
  std::map<std::uint32_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[dist.sample(rng)];
  for (const auto& p : dist.points()) {
    EXPECT_NEAR(static_cast<double>(counts[p.bytes]) / n, p.weight, 0.01)
        << p.bytes;
  }
}

TEST(Diurnal, MultiplierBoundedAndPeaksInEvening) {
  double min_v = 10, max_v = 0;
  int argmax = -1;
  for (int h = 0; h < 24; ++h) {
    const double v = diurnal_multiplier(h);
    EXPECT_GT(v, 0.3);
    EXPECT_LE(v, 1.2);
    if (v > max_v) {
      max_v = v;
      argmax = h;
    }
    min_v = std::min(min_v, v);
  }
  EXPECT_LT(min_v, 0.6);           // overnight trough
  EXPECT_GE(argmax, 18);           // evening peak
  EXPECT_EQ(diurnal_multiplier(-1), diurnal_multiplier(23));
}

TEST(Diurnal, Fig4PeakNear200kIops) {
  Rng rng(3);
  double peak = 0;
  for (int h = 0; h < 24; ++h) {
    for (int rep = 0; rep < 60; ++rep) {
      peak = std::max(peak, fig4_iops(h, rng));
    }
  }
  EXPECT_GT(peak, 180000.0);
  EXPECT_LT(peak, 280000.0);
}

TEST(FioJob, ClosedLoopHoldsIodepth) {
  sim::Engine eng;
  int inflight = 0;
  int max_inflight = 0;
  FioConfig cfg;
  cfg.iodepth = 16;
  cfg.max_ios = 200;
  FioJob job(
      eng,
      [&](transport::IoRequest, transport::IoCompleteFn done) {
        ++inflight;
        max_inflight = std::max(max_inflight, inflight);
        eng.after(us(10), [&, done = std::move(done)] {
          --inflight;
          done(transport::IoResult{.status = transport::StorageStatus::kOk,
                                   .completed_at = eng.now(),
                                   .read_data = {}});
        });
      },
      cfg, Rng(4));
  eng.at(0, [&] { job.start(); });
  eng.run();
  EXPECT_EQ(job.completed(), 200u);
  EXPECT_EQ(max_inflight, 16);
}

TEST(FioJob, SequentialOffsetsAdvance) {
  sim::Engine eng;
  std::vector<std::uint64_t> offsets;
  FioConfig cfg;
  cfg.iodepth = 1;
  cfg.max_ios = 5;
  cfg.sequential = true;
  cfg.block_size = 4096;
  FioJob job(
      eng,
      [&](transport::IoRequest io, transport::IoCompleteFn done) {
        offsets.push_back(io.offset);
        eng.after(us(1), [&eng, done = std::move(done)] {
          done(transport::IoResult{.status = transport::StorageStatus::kOk,
                                   .completed_at = eng.now(),
                                   .read_data = {}});
        });
      },
      cfg, Rng(5));
  eng.at(0, [&] { job.start(); });
  eng.run();
  ASSERT_EQ(offsets.size(), 5u);
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_EQ(offsets[i], offsets[i - 1] + 4096);
  }
}

TEST(FioJob, ReadFractionRespected) {
  sim::Engine eng;
  int reads = 0, writes = 0;
  FioConfig cfg;
  cfg.iodepth = 4;
  cfg.max_ios = 2000;
  cfg.read_fraction = 0.25;
  FioJob job(
      eng,
      [&](transport::IoRequest io, transport::IoCompleteFn done) {
        (io.op == transport::OpType::kRead ? reads : writes)++;
        eng.after(us(1), [&eng, done = std::move(done)] {
          done(transport::IoResult{.status = transport::StorageStatus::kOk,
                                   .completed_at = eng.now(),
                                   .read_data = {}});
        });
      },
      cfg, Rng(6));
  eng.at(0, [&] { job.start(); });
  eng.run();
  EXPECT_NEAR(static_cast<double>(reads) / (reads + writes), 0.25, 0.04);
}

TEST(PoissonLoad, ApproximatesTargetRate) {
  sim::Engine eng;
  int count = 0;
  PoissonConfig cfg;
  cfg.iops = 10000;
  PoissonLoad load(
      eng,
      [&](transport::IoRequest, transport::IoCompleteFn done) {
        ++count;
        done(transport::IoResult{.status = transport::StorageStatus::kOk,
                                 .completed_at = eng.now(),
                                 .read_data = {}});
      },
      cfg, Rng(7));
  eng.at(0, [&] { load.start(); });
  eng.run_until(seconds(1));
  load.stop();
  EXPECT_NEAR(count, 10000, 400);
}

}  // namespace
}  // namespace repro::workload
