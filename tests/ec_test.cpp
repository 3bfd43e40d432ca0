// Unit tests for the erasure-coding subsystem: GF(256) codec algebra,
// EcParams JSON round-trips, the SegmentTable's rotated stripe layout, and
// the EcClient/MaintenanceAgent data path on a small live cluster
// (degraded reads, background rebuild, torn-parity repair).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "common/crc32.h"
#include "ebs/cluster.h"
#include "ec/client.h"
#include "ec/codec.h"
#include "ec/params.h"
#include "kernels/kernels.h"
#include "obs/json.h"
#include "obs/json_reader.h"
#include "sa/segment_table.h"

namespace repro::ec {
namespace {

using transport::IoCompleteFn;
using transport::IoRequest;
using transport::IoResult;
using transport::OpType;
using transport::StorageStatus;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (auto& b : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  return v;
}

// Codec algebra runs under EVERY available kernel dispatch tier, not just
// the default: a tier whose GF multiply-accumulate drifted from the scalar
// reference would corrupt parity silently, so each property is re-proved per
// tier (the tier sweep narrows to the pinned tier under
// REPRO_KERNEL_DISPATCH, keeping forced-scalar CI genuinely scalar).
class EcCodecTiers : public ::testing::TestWithParam<kernels::Tier> {
 protected:
  void SetUp() override {
    entry_ = kernels::active().tier;
    ASSERT_TRUE(kernels::set_tier(GetParam()))
        << kernels::tier_name(GetParam());
  }
  void TearDown() override { kernels::set_tier(entry_); }

 private:
  kernels::Tier entry_ = kernels::Tier::kScalar;
};

INSTANTIATE_TEST_SUITE_P(
    AllTiers, EcCodecTiers, ::testing::ValuesIn(kernels::available_tiers()),
    [](const ::testing::TestParamInfo<kernels::Tier>& info) {
      return std::string(kernels::tier_name(info.param));
    });

TEST_P(EcCodecTiers, GfFieldAlgebra) {
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf_mul(ua, gf_inv(ua)), 1) << a;
    EXPECT_EQ(gf_mul(ua, 1), ua);
    EXPECT_EQ(gf_mul(ua, 0), 0);
  }
  // Distributivity spot-check on a lattice of values.
  for (int a = 0; a < 256; a += 17) {
    for (int b = 0; b < 256; b += 23) {
      for (int c = 0; c < 256; c += 41) {
        const auto ua = static_cast<std::uint8_t>(a);
        const auto ub = static_cast<std::uint8_t>(b);
        const auto uc = static_cast<std::uint8_t>(c);
        EXPECT_EQ(gf_mul(ua, static_cast<std::uint8_t>(ub ^ uc)),
                  gf_mul(ua, ub) ^ gf_mul(ua, uc));
      }
    }
  }
}

/// Every ≤m-subset of lost fragments must reconstruct from the first k
/// survivors — the "any k of k+m" property the Cauchy matrix guarantees.
void check_all_loss_patterns(int k, int m) {
  const std::size_t n = 64;
  Codec codec(k, m);

  std::vector<std::vector<std::uint8_t>> data;
  for (int p = 0; p < k; ++p) {
    // Mix real and absent (all-zero) data fragments.
    data.push_back(p % 3 == 2 ? std::vector<std::uint8_t>{}
                              : pattern(n, static_cast<std::uint64_t>(p) + 1));
  }
  std::vector<std::vector<std::uint8_t>> frag(static_cast<std::size_t>(k + m));
  for (int p = 0; p < k; ++p) {
    frag[static_cast<std::size_t>(p)] =
        data[static_cast<std::size_t>(p)].empty()
            ? std::vector<std::uint8_t>(n, 0)
            : data[static_cast<std::size_t>(p)];
  }
  for (int q = 0; q < m; ++q) {
    frag[static_cast<std::size_t>(k + q)] = codec.encode_parity(q, data, n);
  }

  const int total = k + m;
  for (std::uint32_t lost_mask = 1; lost_mask < (1u << total); ++lost_mask) {
    if (__builtin_popcount(lost_mask) > m) continue;
    std::vector<std::pair<int, const std::vector<std::uint8_t>*>> sources;
    for (int f = 0; f < total && static_cast<int>(sources.size()) < k; ++f) {
      if ((lost_mask & (1u << f)) == 0) {
        sources.emplace_back(f, &frag[static_cast<std::size_t>(f)]);
      }
    }
    ASSERT_EQ(static_cast<int>(sources.size()), k);
    for (int f = 0; f < total; ++f) {
      if ((lost_mask & (1u << f)) == 0) continue;
      std::vector<std::uint8_t> got;
      ASSERT_TRUE(codec.reconstruct(sources, f, n, &got))
          << "k=" << k << " m=" << m << " mask=" << lost_mask;
      EXPECT_EQ(got, frag[static_cast<std::size_t>(f)])
          << "k=" << k << " m=" << m << " lost=" << f;
    }
  }
}

TEST_P(EcCodecTiers, ReconstructAnyKOfKPlusM) {
  check_all_loss_patterns(2, 1);
  check_all_loss_patterns(4, 2);
  check_all_loss_patterns(3, 3);
}

TEST_P(EcCodecTiers, FusedEncodeMatchesPerRowEncode) {
  const int k = 7;
  const int m = 4;
  const std::size_t n = 4096 + 13;  // vector main loop + scalar tail
  Codec codec(k, m);
  std::vector<std::vector<std::uint8_t>> data;
  for (int p = 0; p < k; ++p) {
    data.push_back(p == 4 ? std::vector<std::uint8_t>{}
                          : pattern(n, static_cast<std::uint64_t>(p) + 3));
  }
  const auto fused = codec.encode_parities(data, n);
  ASSERT_EQ(fused.size(), static_cast<std::size_t>(m));
  for (int q = 0; q < m; ++q) {
    EXPECT_EQ(fused[static_cast<std::size_t>(q)],
              codec.encode_parity(q, data, n))
        << q;
  }
  // Subset rows come back in request order.
  const auto subset = codec.encode_parity_rows({3, 1}, data, n);
  ASSERT_EQ(subset.size(), 2u);
  EXPECT_EQ(subset[0], fused[3]);
  EXPECT_EQ(subset[1], fused[1]);
}

TEST_P(EcCodecTiers, DeltaParityMatchesFullReencode) {
  const int k = 4;
  const int m = 2;
  const std::size_t n = 96;
  Codec codec(k, m);

  std::vector<std::vector<std::uint8_t>> data;
  for (int p = 0; p < k; ++p) {
    data.push_back(pattern(n, static_cast<std::uint64_t>(p) + 10));
  }
  std::vector<std::vector<std::uint8_t>> parity;
  for (int q = 0; q < m; ++q) parity.push_back(codec.encode_parity(q, data, n));

  // Overwrite data fragment 2 and apply the delta path to every parity.
  const std::vector<std::uint8_t> fresh = pattern(n, 77);
  std::vector<std::uint8_t> delta(n);
  for (std::size_t i = 0; i < n; ++i) delta[i] = data[2][i] ^ fresh[i];
  data[2] = fresh;
  for (int q = 0; q < m; ++q) {
    const auto via_delta = codec.update_parity(q, 2, parity[static_cast<std::size_t>(q)], delta, n);
    EXPECT_EQ(via_delta, codec.encode_parity(q, data, n)) << q;
  }
}

TEST(EcParamsJson, RoundTrip) {
  EcParams p;
  p.enabled = true;
  p.k = 6;
  p.m = 3;
  p.rebuild_bandwidth_cap = 8.0 * 1024 * 1024;
  p.probe_interval = ms(7);
  p.probe_timeout = ms(21);
  p.probe_failures_to_dead = 3;
  p.rebuild_concurrency = 4;
  p.repair_retry = ms(12);

  std::ostringstream os;
  obs::JsonWriter w(os);
  write_ec_params(w, p);
  const std::string text = os.str();  // JsonReader keeps a reference
  obs::JsonValue v;
  obs::JsonReader reader(text);
  ASSERT_TRUE(reader.parse(&v)) << reader.error();

  EcParams back;
  ASSERT_TRUE(read_ec_params(v, &back));
  EXPECT_TRUE(back.enabled);
  EXPECT_EQ(back.k, 6);
  EXPECT_EQ(back.m, 3);
  EXPECT_DOUBLE_EQ(back.rebuild_bandwidth_cap, 8.0 * 1024 * 1024);
  EXPECT_EQ(back.probe_interval, ms(7));
  EXPECT_EQ(back.probe_timeout, ms(21));
  EXPECT_EQ(back.probe_failures_to_dead, 3);
  EXPECT_EQ(back.rebuild_concurrency, 4);
  EXPECT_EQ(back.repair_retry, ms(12));
}

TEST(EcParamsJson, RejectsBadGeometry) {
  auto parse = [](const std::string& text) {
    obs::JsonValue v;
    obs::JsonReader reader(text);  // text outlives the reader (by-ref param)
    EXPECT_TRUE(reader.parse(&v));
    EcParams p;
    return read_ec_params(v, &p);
  };
  EXPECT_FALSE(parse(R"({"enabled":true,"k":0,"m":2})"));
  EXPECT_FALSE(parse(R"({"enabled":true,"k":4,"m":0})"));
  EXPECT_FALSE(parse(R"({"enabled":true,"k":120,"m":20})"));
  // k caps at 32 (the client write directory is a 32-bit coverage mask).
  EXPECT_FALSE(parse(R"({"enabled":true,"k":33,"m":2})"));
  EXPECT_TRUE(parse(R"({"enabled":true,"k":32,"m":2})"));
  EXPECT_TRUE(parse(R"({"enabled":true,"k":4,"m":2})"));
}

TEST(EcParamsJson, KeyAllowList) {
  EXPECT_TRUE(ec_params_key_allowed("enabled"));
  EXPECT_TRUE(ec_params_key_allowed("k"));
  EXPECT_TRUE(ec_params_key_allowed("m"));
  EXPECT_TRUE(ec_params_key_allowed("rebuild_bandwidth_cap"));
  EXPECT_TRUE(ec_params_key_allowed("probe_interval_us"));
  EXPECT_FALSE(ec_params_key_allowed("rebuild_bandwith_cap"));  // the typo
  EXPECT_FALSE(ec_params_key_allowed("parity"));
}

TEST(EcLayout, RotatedPlacementCoversDistinctServers) {
  sa::SegmentTable table;
  const int k = 3;
  const int m = 2;
  std::vector<net::IpAddr> servers = {11, 12, 13, 14, 15, 16};
  // 12 MB of data = 6 data segments = 2 stripes.
  table.map_disk_ec(7, 12ull << 20, servers, k, m);

  const auto info = table.ec_info(7);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->k, k);
  EXPECT_EQ(info->m, m);
  EXPECT_EQ(info->num_data_segments, 6u);
  EXPECT_EQ(info->num_stripes, 2u);

  for (std::uint32_t g = 0; g < info->num_stripes; ++g) {
    const auto frags = table.ec_fragments(7, g);
    ASSERT_EQ(frags.size(), static_cast<std::size_t>(k + m));
    std::set<net::IpAddr> distinct;
    for (int c = 0; c < k + m; ++c) {
      const auto& f = frags[static_cast<std::size_t>(c)];
      EXPECT_NE(f.block_server, 0u);
      distinct.insert(f.block_server);
      // Rotated placement: fragment c of stripe g on servers[(g + c) % W].
      EXPECT_EQ(f.block_server,
                servers[(g + static_cast<std::uint32_t>(c)) % servers.size()]);
    }
    EXPECT_EQ(distinct.size(), static_cast<std::size_t>(k + m));
  }

  // Data offsets route to the owning fragment's server; the parity region
  // sits directly after the data region.
  const auto d0 = table.lookup(7, 0);
  ASSERT_TRUE(d0.has_value());
  EXPECT_EQ(d0->block_server, servers[0]);
  const auto p0 =
      table.lookup(7, 6ull * sa::SegmentTable::kSegmentBytes);  // parity q=0
  ASSERT_TRUE(p0.has_value());
  EXPECT_EQ(p0->block_server, servers[k % servers.size()]);

  // A map() override (rebuild remap) shadows the rotated placement.
  sa::SegmentLocation moved;
  moved.segment_id = d0->segment_id;
  moved.block_server = 99;
  table.map(7, 0, moved);
  EXPECT_EQ(table.ec_fragments(7, 0)[0].block_server, 99u);
  EXPECT_EQ(table.lookup(7, 0)->block_server, 99u);
}

// ---------------------------------------------------------------------------
// Live-cluster tests: a small EC fleet driven through the guest path.

ebs::ClusterParams ec_params(int k, int m) {
  ebs::ClusterParams p;
  p.topo.compute_servers = 1;
  p.topo.storage_servers = k + m + 1;  // one spare for rebuild
  p.topo.servers_per_rack = 4;
  p.stack = ebs::StackKind::kSolar;
  p.seed = 7;
  p.block_server.store_payload = true;
  p.ec.enabled = true;
  p.ec.k = k;
  p.ec.m = m;
  return p;
}

IoResult run_one_io(sim::Engine& eng, ebs::Cluster& cluster, IoRequest io) {
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

IoRequest write_io(std::uint64_t vd, std::uint64_t offset, std::uint32_t len) {
  IoRequest io;
  io.vd_id = vd;
  io.op = OpType::kWrite;
  io.offset = offset;
  io.len = len;
  io.payload = transport::make_placeholder_blocks(offset, len, 4096);
  for (auto& blk : io.payload) {
    blk.data = pattern(blk.len, blk.lba + 1);
    blk.crc = crc32_raw(blk.data);
  }
  return io;
}

IoRequest read_io(std::uint64_t vd, std::uint64_t offset, std::uint32_t len) {
  IoRequest io;
  io.vd_id = vd;
  io.op = OpType::kRead;
  io.offset = offset;
  io.len = len;
  return io;
}

TEST(EcCluster, WriteReadRoundTripUpdatesParity) {
  sim::Engine eng;
  ebs::Cluster cluster(eng, ec_params(3, 2));
  const std::uint64_t vd = cluster.create_vd(64ull << 20);
  ASSERT_NE(cluster.compute(0).ec(), nullptr);
  ASSERT_NE(cluster.compute(0).maintenance(), nullptr);

  auto wres = run_one_io(eng, cluster, write_io(vd, 0, 16384));
  ASSERT_EQ(wres.status, StorageStatus::kOk);
  // 4 cells written, each with a parity RMW against m = 2 parities.
  EXPECT_EQ(cluster.compute(0).ec()->stats().parity_updates, 8u);

  auto rres = run_one_io(eng, cluster, read_io(vd, 0, 16384));
  ASSERT_EQ(rres.status, StorageStatus::kOk);
  ASSERT_EQ(rres.read_data.size(), 4u);
  for (const auto& blk : rres.read_data) {
    EXPECT_EQ(blk.crc, crc32_raw(pattern(blk.len, blk.lba + 1)));
  }
  EXPECT_EQ(cluster.compute(0).ec()->stats().degraded_reads, 0u);
}

TEST(EcCluster, DegradedReadReconstructsFromAnyK) {
  sim::Engine eng;
  ebs::Cluster cluster(eng, ec_params(3, 2));
  const std::uint64_t vd = cluster.create_vd(64ull << 20);

  ASSERT_EQ(run_one_io(eng, cluster, write_io(vd, 0, 12288)).status,
            StorageStatus::kOk);

  // Down every fragment holder in turn (one at a time = 1 <= m losses):
  // the read must reconstruct the lost cell from the surviving k.
  const auto frags = cluster.segments().ec_fragments(vd, 0);
  ec::EcClient* ec = cluster.compute(0).ec();
  for (int c = 0; c < 5; ++c) {
    const net::IpAddr down = frags[static_cast<std::size_t>(c)].block_server;
    ec->mark_server(down, false);
    auto rres = run_one_io(eng, cluster, read_io(vd, 0, 12288));
    EXPECT_EQ(rres.status, StorageStatus::kOk) << "fragment " << c;
    for (const auto& blk : rres.read_data) {
      EXPECT_EQ(blk.crc, crc32_raw(pattern(blk.len, blk.lba + 1)))
          << "fragment " << c;
    }
    ec->mark_server(down, true);
  }
  EXPECT_GT(ec->stats().degraded_reads, 0u);
}

// A failed data write whose delta parity writes land leaves parity encoding
// the new value while the data cell's on-disk state is unknown. The row must
// be marked dirty — so repair recomputes parity from the data fragments and
// degraded reads fail honestly until then — or a later degraded read of a
// *sibling* cell in the row would decode stale-data + new-parity and return
// corrupt bytes as kOk.
TEST(EcClientRmw, FailedDataWriteMarksRowDirty) {
  sim::Engine eng;
  sa::SegmentTable table;
  const std::uint64_t vd = 1;
  const int k = 2;
  const int m = 1;
  std::vector<net::IpAddr> servers = {21, 22, 23};
  table.map_disk_ec(vd, 32ull << 20, servers, k, m);
  const std::uint64_t data_end =
      table.ec_info(vd)->num_data_segments * sa::SegmentTable::kSegmentBytes;

  // Fake inner stack: reads always succeed; writes to the data region can
  // be told to time out while parity writes keep landing.
  bool fail_data_writes = false;
  int data_writes_seen = 0;
  EcParams params;
  params.enabled = true;
  params.k = k;
  params.m = m;
  EcClient ec(eng, table, params,
              [&eng, &fail_data_writes, &data_writes_seen, data_end](
                  IoRequest io, IoCompleteFn done) {
                if (io.op == OpType::kWrite && io.offset < data_end) {
                  ++data_writes_seen;
                }
                IoResult res;
                res.status = (io.op == OpType::kWrite && fail_data_writes &&
                              io.offset < data_end)
                                 ? StorageStatus::kTimeout
                                 : StorageStatus::kOk;
                eng.after(0, [done = std::move(done),
                              res = std::move(res)]() mutable {
                  done(std::move(res));
                });
              });

  auto run_write = [&](std::uint64_t off) {
    IoResult out;
    bool finished = false;
    ec.submit_io(write_io(vd, off, 4096), [&](IoResult r) {
      out = std::move(r);
      finished = true;
    });
    while (!finished && eng.step()) {
    }
    EXPECT_TRUE(finished);
    return out;
  };

  // Healthy write: row stays clean.
  EXPECT_EQ(run_write(0).status, StorageStatus::kOk);
  EXPECT_FALSE(ec.row_dirty(vd, 0));

  // Data write fails, parity deltas land: the caller sees the error AND the
  // row is pending repair — including at the sibling data cell's offset
  // (segment 1 shares stripe 0 / row 0 with k = 2).
  fail_data_writes = true;
  EXPECT_EQ(run_write(0).status, StorageStatus::kTimeout);
  EXPECT_TRUE(ec.row_dirty(vd, 0));
  EXPECT_TRUE(ec.row_dirty(vd, sa::SegmentTable::kSegmentBytes));

  // Data holder already held dead by this client: the write fails fast like
  // its old-data read. No RPC reaches the stale holder (where it could be
  // acknowledged behind a rebuild's back), the guest sees the error, and the
  // row waits for repair.
  fail_data_writes = false;
  const std::uint64_t row1 = 4096;
  ASSERT_FALSE(ec.row_dirty(vd, row1));
  ec.mark_server(table.lookup(vd, row1)->block_server, false);
  const int data_writes_before = data_writes_seen;
  EXPECT_EQ(run_write(row1).status, StorageStatus::kTimeout);
  EXPECT_TRUE(ec.row_dirty(vd, row1));
  EXPECT_EQ(data_writes_seen, data_writes_before);
}

TEST(EcCluster, DegradedReadFailsPastM) {
  sim::Engine eng;
  ebs::Cluster cluster(eng, ec_params(2, 1));
  const std::uint64_t vd = cluster.create_vd(32ull << 20);

  ASSERT_EQ(run_one_io(eng, cluster, write_io(vd, 0, 4096)).status,
            StorageStatus::kOk);

  // m + 1 = 2 fragment losses on stripe 0: the data is gone.
  const auto frags = cluster.segments().ec_fragments(vd, 0);
  ec::EcClient* ec = cluster.compute(0).ec();
  ec->mark_server(frags[0].block_server, false);
  ec->mark_server(frags[2].block_server, false);
  auto rres = run_one_io(eng, cluster, read_io(vd, 0, 4096));
  EXPECT_NE(rres.status, StorageStatus::kOk);
}

TEST(EcCluster, RejectsUnalignedGuestIo) {
  sim::Engine eng;
  ebs::Cluster cluster(eng, ec_params(2, 1));
  const std::uint64_t vd = cluster.create_vd(32ull << 20);

  ASSERT_EQ(run_one_io(eng, cluster, write_io(vd, 0, 4096)).status,
            StorageStatus::kOk);

  // Sub-cell writes would mutate data fragments behind the parity's back,
  // so non-cell-aligned guest I/O on an EC VD is rejected, never silently
  // passed to the inner stack.
  EXPECT_EQ(run_one_io(eng, cluster, write_io(vd, 2048, 4096)).status,
            StorageStatus::kRejected);
  EXPECT_EQ(run_one_io(eng, cluster, write_io(vd, 0, 2048)).status,
            StorageStatus::kRejected);
  EXPECT_EQ(run_one_io(eng, cluster, read_io(vd, 2048, 4096)).status,
            StorageStatus::kRejected);

  // The stripe stayed consistent: the aligned cell still verifies.
  auto rres = run_one_io(eng, cluster, read_io(vd, 0, 4096));
  ASSERT_EQ(rres.status, StorageStatus::kOk);
  for (const auto& blk : rres.read_data) {
    EXPECT_EQ(blk.crc, crc32_raw(pattern(blk.len, blk.lba + 1)));
  }
}

TEST(EcCluster, MaintenanceRebuildsLostFragment) {
  sim::Engine eng;
  ebs::Cluster cluster(eng, ec_params(3, 2));
  const std::uint64_t vd = cluster.create_vd(64ull << 20);

  ASSERT_EQ(run_one_io(eng, cluster, write_io(vd, 0, 16384)).status,
            StorageStatus::kOk);

  const auto before = cluster.segments().ec_fragments(vd, 0);
  const net::IpAddr lost = before[0].block_server;
  ec::MaintenanceAgent* agent = cluster.compute(0).maintenance();
  agent->force_server_down(lost);
  eng.run();  // rebuild traffic drains to quiesce

  EXPECT_GE(agent->stats().segments_rebuilt, 1u);
  EXPECT_GT(agent->stats().cells_rebuilt, 0u);
  EXPECT_EQ(agent->stalled_segments(), 0u);
  EXPECT_TRUE(agent->idle());

  // The fragment moved to a spare and reads go direct again.
  const auto after = cluster.segments().ec_fragments(vd, 0);
  EXPECT_NE(after[0].block_server, lost);
  EXPECT_EQ(cluster.compute(0).ec()->rebuilding_segments(), 0u);

  auto rres = run_one_io(eng, cluster, read_io(vd, 0, 16384));
  ASSERT_EQ(rres.status, StorageStatus::kOk);
  for (const auto& blk : rres.read_data) {
    EXPECT_EQ(blk.crc, crc32_raw(pattern(blk.len, blk.lba + 1)));
  }
}

TEST(EcCluster, RebuildStallsPastMThenRecovers) {
  sim::Engine eng;
  ebs::Cluster cluster(eng, ec_params(2, 1));
  const std::uint64_t vd = cluster.create_vd(32ull << 20);

  // Write both data fragments of stripe 0 (offset 0 → data cell 0,
  // offset 2MB = segment 1 → data cell 1 with k = 2). An unwritten data
  // cell would count as an implicit-zero source and quietly rescue the
  // rebuild; covering both makes the loss genuinely unrecoverable.
  ASSERT_EQ(run_one_io(eng, cluster, write_io(vd, 0, 4096)).status,
            StorageStatus::kOk);
  ASSERT_EQ(
      run_one_io(eng, cluster, write_io(vd, sa::SegmentTable::kSegmentBytes, 4096)).status,
      StorageStatus::kOk);

  const auto frags = cluster.segments().ec_fragments(vd, 0);
  // Really stop the two fragment holders' NICs (not just the agent's
  // belief): otherwise the next health probe succeeds and revives them.
  auto nic_of = [&cluster](net::IpAddr ip) -> net::Nic& {
    for (int i = 0; i < cluster.num_storage(); ++i) {
      if (cluster.storage(i).nic().ip() == ip) return cluster.storage(i).nic();
    }
    ADD_FAILURE() << "no storage node owns ip " << ip;
    return cluster.storage(0).nic();
  };
  net::Nic& nic0 = nic_of(frags[0].block_server);
  net::Nic& nic1 = nic_of(frags[1].block_server);
  cluster.network().fail_device_stop(nic0);
  cluster.network().fail_device_stop(nic1);
  // Mark both dead in the client first so the rebuild the first
  // force_server_down kicks off already excludes the second server from
  // its source set (a read to the stopped NIC would wedge in flight).
  cluster.compute(0).ec()->mark_server(frags[0].block_server, false);
  cluster.compute(0).ec()->mark_server(frags[1].block_server, false);
  ec::MaintenanceAgent* agent = cluster.compute(0).maintenance();
  agent->force_server_down(frags[0].block_server);
  agent->force_server_down(frags[1].block_server);
  // Bounded: a really-stopped NIC keeps SOLAR's path probing alive, so the
  // engine never fully quiesces the way a belief-only failure would.
  eng.run_until(eng.now() + seconds(2));
  // Two of three fragments down with m = 1: reconstruction is impossible
  // and the rebuild parks as stalled instead of spinning.
  EXPECT_GT(agent->stalled_segments(), 0u);
  EXPECT_FALSE(agent->idle());

  // A server comes back: the stalled segments get requeued and drain.
  for (int i = 0; i < nic1.num_ports(); ++i) {
    if (nic1.port(i).connected()) cluster.network().repair_link(nic1, i);
  }
  agent->force_server_up(frags[1].block_server);
  eng.run_until(eng.now() + seconds(2));
  EXPECT_EQ(agent->stalled_segments(), 0u);
  EXPECT_TRUE(agent->idle());
  EXPECT_EQ(run_one_io(eng, cluster, read_io(vd, 0, 4096)).status,
            StorageStatus::kOk);
  EXPECT_EQ(
      run_one_io(eng, cluster, read_io(vd, sa::SegmentTable::kSegmentBytes, 4096)).status,
      StorageStatus::kOk);
}

}  // namespace
}  // namespace repro::ec
