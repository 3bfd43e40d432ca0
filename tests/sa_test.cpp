#include <gtest/gtest.h>

#include "common/crc32.h"
#include "ebs/metrics.h"
#include "obs/obs.h"
#include "sa/agent.h"
#include "sa/crypto.h"
#include "sa/qos_table.h"
#include "sa/segment_table.h"
#include "storage/block_server.h"
#include "transport/tcp.h"

#include "net/topology.h"

namespace repro::sa {
namespace {

using transport::DataBlock;
using transport::IoRequest;
using transport::IoResult;
using transport::OpType;
using transport::StorageStatus;

TEST(SegmentTable, LookupByOffset) {
  SegmentTable t;
  t.map(1, 0, {100, 50});
  t.map(1, 1, {101, 51});
  auto loc = t.lookup(1, 0);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->segment_id, 100u);
  loc = t.lookup(1, SegmentTable::kSegmentBytes - 1);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->segment_id, 100u);
  loc = t.lookup(1, SegmentTable::kSegmentBytes);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->segment_id, 101u);
  EXPECT_FALSE(t.lookup(1, 2 * SegmentTable::kSegmentBytes).has_value());
  EXPECT_FALSE(t.lookup(2, 0).has_value());
}

TEST(SegmentTable, MapDiskStripesAcrossServers) {
  SegmentTable t;
  t.map_disk(5, 10 * SegmentTable::kSegmentBytes, {10, 11, 12});
  EXPECT_EQ(t.size(), 10u);
  EXPECT_EQ(t.lookup(5, 0)->block_server, 10u);
  EXPECT_EQ(t.lookup(5, SegmentTable::kSegmentBytes)->block_server, 11u);
  EXPECT_EQ(t.lookup(5, 2 * SegmentTable::kSegmentBytes)->block_server, 12u);
  EXPECT_EQ(t.lookup(5, 3 * SegmentTable::kSegmentBytes)->block_server, 10u);
}

TEST(SegmentTable, SplitWithinOneSegment) {
  SegmentTable t;
  t.map_disk(1, 4 * SegmentTable::kSegmentBytes, {10});
  auto ext = t.split(1, 4096, 65536);
  ASSERT_EQ(ext.size(), 1u);
  EXPECT_EQ(ext[0].vd_offset, 4096u);
  EXPECT_EQ(ext[0].segment_offset, 4096u);
  EXPECT_EQ(ext[0].len, 65536u);
}

TEST(SegmentTable, SplitAcrossSegmentBoundary) {
  SegmentTable t;
  t.map_disk(1, 4 * SegmentTable::kSegmentBytes, {10, 11});
  const std::uint64_t start = SegmentTable::kSegmentBytes - 8192;
  auto ext = t.split(1, start, 16384);
  ASSERT_EQ(ext.size(), 2u);
  EXPECT_EQ(ext[0].len, 8192u);
  EXPECT_EQ(ext[0].segment_offset, SegmentTable::kSegmentBytes - 8192);
  EXPECT_EQ(ext[1].len, 8192u);
  EXPECT_EQ(ext[1].segment_offset, 0u);
  EXPECT_NE(ext[0].loc.segment_id, ext[1].loc.segment_id);
}

TEST(SegmentTable, SplitUnmappedRangeIsEmpty) {
  SegmentTable t;
  t.map_disk(1, SegmentTable::kSegmentBytes, {10});
  EXPECT_TRUE(t.split(1, SegmentTable::kSegmentBytes - 4096, 8192).empty());
  EXPECT_TRUE(t.split(2, 0, 4096).empty());
}

TEST(QosTable, UnknownVdAdmitsImmediately) {
  QosTable q;
  auto a = q.admit(123, 4096, us(5));
  EXPECT_TRUE(a.admitted);
  EXPECT_EQ(a.admit_at, us(5));
}

TEST(QosTable, IopsLimitDelaysExcessIos) {
  QosTable q;
  QosSpec spec;
  spec.iops_limit = 1000;  // 1 io/ms
  spec.burst_ios = 1;
  spec.burst_bytes = 1e9;
  spec.bandwidth_limit = 1e12;
  q.set(1, spec);
  auto a1 = q.admit(1, 4096, 0);
  EXPECT_EQ(a1.admit_at, 0);
  auto a2 = q.admit(1, 4096, 0);
  EXPECT_GE(a2.admit_at, ms(1) - us(10));
  auto a3 = q.admit(1, 4096, 0);
  EXPECT_GE(a3.admit_at, 2 * ms(1) - us(20));
  EXPECT_EQ(q.throttled(), 2u);
}

TEST(QosTable, BandwidthLimitDelaysLargeIos) {
  QosTable q;
  QosSpec spec;
  spec.iops_limit = 1e9;
  spec.bandwidth_limit = 100.0 * 1024 * 1024;  // 100 MiB/s
  spec.burst_bytes = 1024 * 1024;
  q.set(1, spec);
  ASSERT_EQ(q.admit(1, 1024 * 1024, 0).admit_at, 0);  // burst
  const auto a = q.admit(1, 1024 * 1024, 0);
  // Another 1 MiB must wait ~10 ms at 100 MiB/s.
  EXPECT_NEAR(static_cast<double>(a.admit_at), static_cast<double>(ms(10)),
              static_cast<double>(ms(1)));
}

TEST(QosTable, TokensRecoverAfterIdle) {
  QosTable q;
  QosSpec spec;
  spec.iops_limit = 1000;
  spec.burst_ios = 2;
  q.set(1, spec);
  q.admit(1, 4096, 0);
  q.admit(1, 4096, 0);
  auto a = q.admit(1, 4096, seconds(1));  // long idle refills the bucket
  EXPECT_EQ(a.admit_at, seconds(1));
}

TEST(BlockCipher, RoundTripsAndTweaks) {
  BlockCipher c(0xFEED);
  Rng rng(3);
  std::vector<std::uint8_t> data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  auto original = data;

  c.apply(1, 0, data);
  EXPECT_NE(data, original);  // actually transformed
  auto ct_lba0 = data;
  c.apply(1, 0, data);
  EXPECT_EQ(data, original);  // self-inverse

  // Same plaintext at another LBA yields different ciphertext (tweak).
  c.apply(1, 4096, data);
  EXPECT_NE(data, ct_lba0);
  c.apply(1, 4096, data);

  // Different key yields different ciphertext.
  BlockCipher c2(0xBEEF);
  c2.apply(1, 0, data);
  EXPECT_NE(data, ct_lba0);
}

TEST(BlockCipher, HandlesOddLengths) {
  BlockCipher c(1);
  for (std::size_t len : {1u, 7u, 8u, 9u, 4095u}) {
    std::vector<std::uint8_t> data(len, 0xAB);
    auto orig = data;
    c.apply(0, 0, data);
    c.apply(0, 0, data);
    EXPECT_EQ(data, orig) << len;
  }
}

// ---- End-to-end SA over LUNA to a real block server ----------------------

struct SaFixture {
  obs::Obs obs;  ///< traces the agent once a test calls `traced()`
  sim::Engine eng;
  net::Network net{eng, net::NetworkParams{}, 7};
  net::TwoHosts hosts = net::build_two_hosts(net, gbps(25), us(1));
  sim::CpuPool client_cpu{eng, "c", 4, sim::CpuPool::Dispatch::kByHash};
  sim::CpuPool server_cpu{eng, "s", 4, sim::CpuPool::Dispatch::kByHash};
  transport::TcpStack client_stack{eng, *hosts.a, client_cpu,
                                   transport::luna_profile(), Rng(1)};
  transport::TcpStack server_stack{eng, *hosts.b, server_cpu,
                                   transport::luna_profile(), Rng(2)};
  storage::BlockServerParams bs_params;
  std::unique_ptr<storage::BlockServer> block_server;
  SegmentTable segments;
  QosTable qos;
  BlockCipher cipher{0xABCD};
  SaParams sa_params;
  std::unique_ptr<StorageAgent> agent;

  explicit SaFixture(bool encrypt = false, bool store_payload = true) {
    bs_params.store_payload = store_payload;
    block_server = std::make_unique<storage::BlockServer>(eng, bs_params,
                                                          Rng(3));
    server_stack.set_handler(
        [this](transport::StorageRequest req,
               std::function<void(transport::StorageResponse)> reply) {
          block_server->handle(std::move(req), std::move(reply));
        });
    segments.map_disk(1, 64 * SegmentTable::kSegmentBytes, {hosts.b->ip()});
    sa_params.encrypt = encrypt;
    agent = std::make_unique<StorageAgent>(eng, client_cpu, segments, qos,
                                           client_stack,
                                           encrypt ? &cipher : nullptr,
                                           sa_params);
  }

  /// Records the agent's spans, so `ebs::breakdown` can split its I/Os.
  void traced() {
    agent->set_obs(&obs, static_cast<std::uint32_t>(hosts.a->id()));
  }

  ebs::Breakdown breakdown(const IoResult& res) const {
    return ebs::breakdown(obs.tracer(), res.span);
  }

  IoResult run_io(IoRequest io) {
    IoResult out;
    bool done = false;
    eng.at(eng.now(), [&] {
      agent->submit_io(std::move(io), [&](IoResult r) {
        out = std::move(r);
        done = true;
      });
    });
    eng.run();
    EXPECT_TRUE(done);
    return out;
  }

  IoRequest write_io(std::uint64_t offset, std::uint32_t len, Rng& rng) {
    IoRequest io;
    io.vd_id = 1;
    io.op = OpType::kWrite;
    io.offset = offset;
    io.len = len;
    io.payload = transport::make_placeholder_blocks(offset, len, 4096);
    for (auto& blk : io.payload) {
      blk.data.resize(blk.len);
      for (auto& b : blk.data) b = static_cast<std::uint8_t>(rng.next());
    }
    return io;
  }
};

TEST(StorageAgent, WriteReadRoundTripPreservesData) {
  SaFixture f;
  Rng rng(9);
  auto wio = f.write_io(8192, 16384, rng);
  auto expected = wio.payload;
  auto wres = f.run_io(std::move(wio));
  ASSERT_EQ(wres.status, StorageStatus::kOk);

  IoRequest rio;
  rio.vd_id = 1;
  rio.op = OpType::kRead;
  rio.offset = 8192;
  rio.len = 16384;
  auto rres = f.run_io(std::move(rio));
  ASSERT_EQ(rres.status, StorageStatus::kOk);
  ASSERT_EQ(rres.read_data.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rres.read_data[i].lba, expected[i].lba);
    EXPECT_EQ(rres.read_data[i].data, expected[i].data);
  }
}

TEST(StorageAgent, EncryptionIsTransparentEndToEnd) {
  SaFixture f(/*encrypt=*/true);
  Rng rng(10);
  auto wio = f.write_io(0, 4096, rng);
  auto plain = wio.payload[0].data;
  ASSERT_EQ(f.run_io(std::move(wio)).status, StorageStatus::kOk);

  // The block server must have stored ciphertext, not plaintext.
  auto seg0 = f.segments.lookup(1, 0);
  ASSERT_TRUE(seg0.has_value());
  auto stored = f.block_server->store().get(seg0->segment_id, 0);
  ASSERT_TRUE(stored.has_value());
  EXPECT_NE(stored->data, plain);

  IoRequest rio;
  rio.vd_id = 1;
  rio.op = OpType::kRead;
  rio.offset = 0;
  rio.len = 4096;
  auto rres = f.run_io(std::move(rio));
  ASSERT_EQ(rres.status, StorageStatus::kOk);
  ASSERT_EQ(rres.read_data.size(), 1u);
  EXPECT_EQ(rres.read_data[0].data, plain);  // decrypted back for the guest
}

TEST(StorageAgent, IoCrossingSegmentBoundarySplitsIntoTwoRpcs) {
  SaFixture f;
  Rng rng(11);
  const std::uint64_t start = SegmentTable::kSegmentBytes - 8192;
  auto wio = f.write_io(start, 16384, rng);
  ASSERT_EQ(f.run_io(std::move(wio)).status, StorageStatus::kOk);
  EXPECT_EQ(f.agent->stats().split_ios, 1u);
  EXPECT_EQ(f.agent->stats().rpcs, 2u);
}

TEST(StorageAgent, UnmappedRangeFailsFast) {
  SaFixture f;
  IoRequest rio;
  rio.vd_id = 42;  // unknown disk
  rio.op = OpType::kRead;
  rio.offset = 0;
  rio.len = 4096;
  auto res = f.run_io(std::move(rio));
  EXPECT_EQ(res.status, StorageStatus::kOutOfRange);
}

TEST(StorageAgent, TraceBreakdownCoversComponents) {
  SaFixture f;
  f.traced();
  Rng rng(12);
  auto res = f.run_io(f.write_io(0, 4096, rng));
  ASSERT_EQ(res.status, StorageStatus::kOk);
  const ebs::Breakdown b = f.breakdown(res);
  EXPECT_GT(b.sa, 0);
  EXPECT_GT(b.fn, 0);
  EXPECT_GT(b.bn, 0);
  EXPECT_GT(b.ssd, 0);
  EXPECT_EQ(res.qos_wait_ns, 0);
  // Total must roughly equal wall time (no double counting).
  EXPECT_NEAR(static_cast<double>(b.total()),
              static_cast<double>(res.completed_at), res.completed_at * 0.25);
}

TEST(StorageAgent, QosWaitExcludedFromSpansButReported) {
  SaFixture f;
  QosSpec spec;
  spec.iops_limit = 100;  // 10ms between IOs
  spec.burst_ios = 1;
  f.qos.set(1, spec);
  f.traced();
  Rng rng(13);
  auto r1 = f.run_io(f.write_io(0, 4096, rng));
  EXPECT_EQ(r1.qos_wait_ns, 0);
  auto r2 = f.run_io(f.write_io(4096, 4096, rng));
  EXPECT_GT(r2.qos_wait_ns, ms(5));
  EXPECT_LT(f.breakdown(r2).sa, ms(5));  // wait not charged to SA span
}

TEST(StorageAgent, CorruptionDetectedOnRead) {
  SaFixture f;
  Rng rng(14);
  ASSERT_EQ(f.run_io(f.write_io(0, 4096, rng)).status, StorageStatus::kOk);
  // Corrupt the stored block behind the server's back (bit rot).
  auto seg0 = f.segments.lookup(1, 0);
  auto blk = f.block_server->store().get(seg0->segment_id, 0);
  ASSERT_TRUE(blk.has_value());
  auto bad = blk->data;
  bad[17] ^= 0x01;
  f.block_server->store().put(seg0->segment_id, 0, 4096, blk->crc, bad);

  IoRequest rio;
  rio.vd_id = 1;
  rio.op = OpType::kRead;
  rio.offset = 0;
  rio.len = 4096;
  auto res = f.run_io(std::move(rio));
  EXPECT_EQ(res.status, StorageStatus::kCrcMismatch);
  EXPECT_EQ(f.agent->stats().crc_mismatches, 1u);
}

}  // namespace
}  // namespace repro::sa
