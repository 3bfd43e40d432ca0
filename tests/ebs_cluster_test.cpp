#include "ebs/cluster.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "ebs/metrics.h"
#include "obs/obs.h"
#include "workload/fio.h"

namespace repro::ebs {
namespace {

using transport::IoRequest;
using transport::IoResult;
using transport::OpType;
using transport::StorageStatus;

ClusterParams small_params(StackKind stack) {
  ClusterParams p;
  p.topo.compute_servers = 2;
  p.topo.storage_servers = 4;
  p.topo.servers_per_rack = 4;
  p.stack = stack;
  p.seed = 99;
  return p;
}

IoResult run_one_io(sim::Engine& eng, Cluster& cluster, IoRequest io) {
  IoResult out;
  bool done = false;
  eng.at(eng.now(), [&] {
    cluster.compute(0).submit_io(std::move(io), [&](IoResult r) {
      out = std::move(r);
      done = true;
    });
  });
  while (!done && eng.step()) {
  }
  EXPECT_TRUE(done);
  return out;
}

IoRequest read_io(std::uint64_t vd, std::uint64_t offset, std::uint32_t len) {
  IoRequest io;
  io.vd_id = vd;
  io.op = OpType::kRead;
  io.offset = offset;
  io.len = len;
  return io;
}

IoRequest write_io(std::uint64_t vd, std::uint64_t offset,
                   std::uint32_t len) {
  IoRequest io;
  io.vd_id = vd;
  io.op = OpType::kWrite;
  io.offset = offset;
  io.len = len;
  io.payload = transport::make_placeholder_blocks(offset, len, 4096);
  return io;
}

class ClusterStacks : public ::testing::TestWithParam<StackKind> {};

TEST_P(ClusterStacks, WriteAndReadComplete) {
  sim::Engine eng;
  Cluster cluster(eng, small_params(GetParam()));
  const std::uint64_t vd = cluster.create_vd(1ull << 30);

  auto wres = run_one_io(eng, cluster, write_io(vd, 0, 16384));
  EXPECT_EQ(wres.status, StorageStatus::kOk);

  IoRequest rio;
  rio.vd_id = vd;
  rio.op = OpType::kRead;
  rio.offset = 0;
  rio.len = 16384;
  auto rres = run_one_io(eng, cluster, std::move(rio));
  EXPECT_EQ(rres.status, StorageStatus::kOk);
}

TEST_P(ClusterStacks, TraceComponentsPopulated) {
  obs::Obs obs;
  sim::Engine eng;
  ClusterParams params = small_params(GetParam());
  params.obs = &obs;
  Cluster cluster(eng, params);
  const std::uint64_t vd = cluster.create_vd(1ull << 30);
  auto res = run_one_io(eng, cluster, write_io(vd, 4096, 4096));
  ASSERT_EQ(res.status, StorageStatus::kOk);
  const Breakdown b = breakdown(obs.tracer(), res.span);
  EXPECT_GT(b.fn, 0);
  EXPECT_GT(b.bn, 0);
  EXPECT_GT(b.ssd, 0);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, ClusterStacks,
                         ::testing::Values(StackKind::kKernelTcp,
                                           StackKind::kLuna,
                                           StackKind::kRdma,
                                           StackKind::kSolarStar,
                                           StackKind::kSolar),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (auto& c : n) {
                             if (c == '-' || c == '*') c = '_';
                           }
                           return n;
                         });

// A write and its read-back on an SA stack (LUNA) and on SOLAR, of one
// block (4 KB) and of four (16 KB, where each SOLAR block is its own round
// trip): every component derived from the I/O's spans is positive, an SA
// stack's components add up to the I/O's wall latency exactly, and SOLAR's
// to at most it (no interval is counted twice).
TEST(Breakdown, DerivedFromSpansForReadsAndWrites) {
  for (StackKind stack : {StackKind::kLuna, StackKind::kSolar}) {
    obs::Obs obs;
    sim::Engine eng;
    ClusterParams params = small_params(stack);
    params.obs = &obs;
    Cluster cluster(eng, params);
    const std::uint64_t vd = cluster.create_vd(1ull << 30);
    for (std::uint32_t len : {4096u, 16384u}) {
      for (OpType op : {OpType::kWrite, OpType::kRead}) {
        SCOPED_TRACE(to_string(stack) +
                     (op == OpType::kWrite ? " write " : " read ") +
                     std::to_string(len));
        const TimeNs issued = eng.now();
        const IoResult res = run_one_io(
            eng, cluster,
            op == OpType::kWrite ? write_io(vd, 0, len) : read_io(vd, 0, len));
        ASSERT_EQ(res.status, StorageStatus::kOk);
        const Breakdown b = breakdown(obs.tracer(), res.span);
        EXPECT_GT(b.sa, 0);
        EXPECT_GT(b.fn, 0);
        EXPECT_GT(b.bn, 0);
        EXPECT_GT(b.ssd, 0);
        const TimeNs wall = res.completed_at - issued;
        if (stack != StackKind::kSolar) {
          EXPECT_EQ(b.total(), wall);
        } else {
          // SOLAR's components are disjoint parts of the I/O.
          EXPECT_LE(b.total(), wall);
        }
      }
    }
  }
}

// A ring too small for one I/O has overwritten the start of its span tree:
// the derivation refuses, rather than report the surviving part (or zeros).
TEST(Breakdown, FailsLoudlyWhenTheRingWrapped) {
  obs::ObsConfig oc;
  oc.trace_capacity = 8;
  obs::Obs obs(oc);
  sim::Engine eng;
  ClusterParams params = small_params(StackKind::kSolar);
  params.obs = &obs;
  Cluster cluster(eng, params);
  const std::uint64_t vd = cluster.create_vd(1ull << 30);
  const IoResult res = run_one_io(eng, cluster, write_io(vd, 0, 4096));
  ASSERT_EQ(res.status, StorageStatus::kOk);
  ASSERT_NE(obs.tracer().find(res.span), nullptr);  // the root survived
  try {
    breakdown(obs.tracer(), res.span);
    ADD_FAILURE() << "breakdown of a wrapped trace returned";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("wrapped"), std::string::npos)
        << e.what();
  }
  // An untraced I/O (span 0) is refused too.
  EXPECT_THROW(breakdown(obs.tracer(), 0), std::runtime_error);
}

TEST(Cluster, LatencyOrderingMatchesPaper) {
  // Single 4KB write: kernel > luna > solar (Fig. 6 medians).
  std::map<StackKind, TimeNs> median;
  for (StackKind stack : {StackKind::kKernelTcp, StackKind::kLuna,
                          StackKind::kSolar}) {
    sim::Engine eng;
    Cluster cluster(eng, small_params(stack));
    const std::uint64_t vd = cluster.create_vd(1ull << 30);
    SampleSet lat;
    for (int i = 0; i < 60; ++i) {
      const TimeNs t0 = eng.now();
      auto res = run_one_io(eng, cluster,
                            write_io(vd, (i % 128) * 4096, 4096));
      ASSERT_EQ(res.status, StorageStatus::kOk);
      lat.record(static_cast<double>(eng.now() - t0));
    }
    median[stack] = static_cast<TimeNs>(lat.percentile(0.5));
  }
  EXPECT_GT(median[StackKind::kKernelTcp], median[StackKind::kLuna]);
  EXPECT_GT(median[StackKind::kLuna], median[StackKind::kSolar]);
}

TEST(Cluster, DpuHostedLunaPaysInternalPcie) {
  auto params = small_params(StackKind::kLuna);
  params.on_dpu = true;
  sim::Engine eng;
  Cluster cluster(eng, params);
  const std::uint64_t vd = cluster.create_vd(1ull << 30);
  auto res = run_one_io(eng, cluster, write_io(vd, 0, 65536));
  ASSERT_EQ(res.status, StorageStatus::kOk);
  ASSERT_NE(cluster.compute(0).dpu(), nullptr);
  EXPECT_GE(cluster.compute(0).dpu()->internal_pcie().bytes_transferred(),
            2u * 65536);
}

TEST(Cluster, VdsStripeAcrossStorageNodes) {
  sim::Engine eng;
  Cluster cluster(eng, small_params(StackKind::kLuna));
  const std::uint64_t vd = cluster.create_vd(16ull << 20);  // 8 segments
  std::set<net::IpAddr> servers;
  for (int s = 0; s < 8; ++s) {
    auto loc = cluster.segments().lookup(
        vd, static_cast<std::uint64_t>(s) * sa::SegmentTable::kSegmentBytes);
    ASSERT_TRUE(loc.has_value());
    servers.insert(loc->block_server);
  }
  EXPECT_EQ(servers.size(), 4u);
}

TEST(Cluster, FioJobDrivesCluster) {
  sim::Engine eng;
  Cluster cluster(eng, small_params(StackKind::kSolar));
  const std::uint64_t vd = cluster.create_vd(1ull << 30);
  workload::FioConfig cfg;
  cfg.vd_id = vd;
  cfg.vd_size = 1ull << 30;
  cfg.block_size = 4096;
  cfg.iodepth = 8;
  cfg.read_fraction = 0.5;
  cfg.max_ios = 500;
  workload::FioJob job(
      eng,
      [&](IoRequest io, transport::IoCompleteFn done) {
        cluster.compute(0).submit_io(std::move(io), std::move(done));
      },
      cfg, Rng(5));
  eng.at(0, [&] { job.start(); });
  eng.run();
  EXPECT_EQ(job.completed(), 500u);
  EXPECT_EQ(job.metrics().errors(), 0u);
  EXPECT_EQ(job.metrics().hangs(), 0u);
  EXPECT_GT(job.metrics().iops(eng.now()), 0.0);
}

}  // namespace
}  // namespace repro::ebs
