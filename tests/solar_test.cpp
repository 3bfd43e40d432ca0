#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/histogram.h"
#include "ebs/metrics.h"
#include "net/topology.h"
#include "obs/obs.h"
#include "solar/client.h"
#include "solar/server.h"

namespace repro::solar {
namespace {

using transport::DataBlock;
using transport::IoRequest;
using transport::IoResult;
using transport::OpType;
using transport::StorageStatus;

struct SolarFixture {
  obs::Obs obs;  ///< records spans once a test calls `traced()`
  sim::Engine eng;
  net::Network net{eng, net::NetworkParams{}, 2024};
  net::Clos clos;
  dpu::DpuParams dpu_params;
  std::unique_ptr<dpu::AliDpu> dpu;
  sa::SegmentTable segments;
  sa::QosTable qos;
  SolarParams params;
  std::unique_ptr<SolarClient> client;
  storage::BlockServerParams bs_params;
  std::vector<std::unique_ptr<storage::BlockServer>> block_servers;
  std::vector<std::unique_ptr<sim::CpuPool>> server_cpus;
  std::vector<std::unique_ptr<SolarServer>> servers;

  explicit SolarFixture(SolarParams p = SolarParams{},
                        dpu::FpgaFaults faults = {},
                        bool store_payload = true, int storage_nodes = 2) {
    net::ClosConfig cfg;
    cfg.compute_servers = 1;
    cfg.storage_servers = storage_nodes;
    cfg.servers_per_rack = std::max(storage_nodes, 1);
    cfg.spines_per_pod = 2;
    cfg.core_switches = 2;
    clos = build_clos(net, cfg);

    dpu_params.fpga.faults = faults;
    dpu = std::make_unique<dpu::AliDpu>(eng, dpu_params, Rng(3));
    params = p;
    client = std::make_unique<SolarClient>(eng, *dpu, *clos.compute[0],
                                           segments, qos, params, Rng(4));
    bs_params.store_payload = store_payload;
    std::vector<net::IpAddr> server_ips;
    int idx = 0;
    for (auto* nic : clos.storage) {
      block_servers.push_back(
          std::make_unique<storage::BlockServer>(eng, bs_params,
                                                 Rng(10 + idx)));
      server_cpus.push_back(std::make_unique<sim::CpuPool>(
          eng, "scpu", 4, sim::CpuPool::Dispatch::kByHash));
      servers.push_back(std::make_unique<SolarServer>(
          eng, *nic, *server_cpus.back(), *block_servers.back(),
          SolarServerParams{}, Rng(20 + idx)));
      server_ips.push_back(nic->ip());
      ++idx;
    }
    segments.map_disk(1, 64 * sa::SegmentTable::kSegmentBytes, server_ips);
  }

  /// Records the data path's spans, so `ebs::breakdown` can split I/Os.
  void traced() { net.set_obs(&obs); }

  ebs::Breakdown breakdown(const IoResult& res) const {
    return ebs::breakdown(obs.tracer(), res.span);
  }

  IoResult run_io(IoRequest io, TimeNs deadline = seconds(60)) {
    IoResult out;
    bool done = false;
    const TimeNs t0 = eng.now();
    eng.at(eng.now(), [&] {
      client->submit_io(std::move(io), [&](IoResult r) {
        out = std::move(r);
        done = true;
      });
    });
    // Step event-by-event so the clock stops the moment the I/O finishes.
    while (!done && eng.now() < t0 + deadline && eng.step()) {
    }
    EXPECT_TRUE(done) << "I/O did not complete";
    if (!done) out.status = StorageStatus::kTimeout;
    return out;
  }

  IoRequest write_io(std::uint64_t offset, std::uint32_t len, Rng& rng,
                     bool real_payload = true) {
    IoRequest io;
    io.vd_id = 1;
    io.op = OpType::kWrite;
    io.offset = offset;
    io.len = len;
    io.payload = transport::make_placeholder_blocks(offset, len, 4096);
    if (real_payload) {
      for (auto& blk : io.payload) {
        blk.data.resize(blk.len);
        for (auto& b : blk.data) b = static_cast<std::uint8_t>(rng.next());
      }
    }
    return io;
  }

  IoRequest read_io(std::uint64_t offset, std::uint32_t len) {
    IoRequest io;
    io.vd_id = 1;
    io.op = OpType::kRead;
    io.offset = offset;
    io.len = len;
    return io;
  }
};

TEST(Solar, WriteReadRoundTripPreservesData) {
  SolarFixture f;
  Rng rng(1);
  auto wio = f.write_io(8192, 16384, rng);
  auto expected = wio.payload;
  auto wres = f.run_io(std::move(wio));
  ASSERT_EQ(wres.status, StorageStatus::kOk);

  auto rres = f.run_io(f.read_io(8192, 16384));
  ASSERT_EQ(rres.status, StorageStatus::kOk);
  ASSERT_EQ(rres.read_data.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rres.read_data[i].lba, expected[i].lba);
    EXPECT_EQ(rres.read_data[i].data, expected[i].data);
  }
}

TEST(Solar, EncryptedWriteStoresCiphertextAndReadsBack) {
  SolarParams p;
  p.encrypt = true;
  SolarFixture f(p);
  Rng rng(2);
  auto wio = f.write_io(0, 4096, rng);
  const auto plain = wio.payload[0].data;
  ASSERT_EQ(f.run_io(std::move(wio)).status, StorageStatus::kOk);

  auto loc = f.segments.lookup(1, 0);
  ASSERT_TRUE(loc.has_value());
  bool found = false;
  for (auto& bs : f.block_servers) {
    if (auto blk = bs->store().get(loc->segment_id, 0)) {
      EXPECT_NE(blk->data, plain);  // ciphertext at rest
      found = true;
    }
  }
  EXPECT_TRUE(found);

  auto rres = f.run_io(f.read_io(0, 4096));
  ASSERT_EQ(rres.status, StorageStatus::kOk);
  ASSERT_EQ(rres.read_data.size(), 1u);
  EXPECT_EQ(rres.read_data[0].data, plain);
}

TEST(Solar, WriteLatencyIsTensOfMicroseconds) {
  SolarFixture f;
  Rng rng(3);
  SampleSet lat;
  for (int i = 0; i < 100; ++i) {
    const TimeNs t0 = f.eng.now();
    auto res = f.run_io(f.write_io((i % 256) * 4096, 4096, rng));
    ASSERT_EQ(res.status, StorageStatus::kOk);
    lat.record(to_us(f.eng.now() - t0));
  }
  // Fig. 6: SOLAR 4KB write ~ tens of us end-to-end, SA span tiny.
  EXPECT_LT(lat.percentile(0.5), 80.0);
  EXPECT_GT(lat.percentile(0.5), 15.0);
}

TEST(Solar, SaSpanIsMicroscopicComparedToSoftwareSa) {
  SolarFixture f;
  f.traced();
  Rng rng(4);
  auto res = f.run_io(f.write_io(0, 4096, rng));
  ASSERT_EQ(res.status, StorageStatus::kOk);
  const ebs::Breakdown b = f.breakdown(res);
  EXPECT_LT(b.sa, us(10));
  EXPECT_GT(b.fn, 0);
  EXPECT_GT(b.ssd, 0);
}

TEST(Solar, LargeWriteUsesOnePacketPerBlock) {
  SolarFixture f;
  Rng rng(5);
  auto res = f.run_io(f.write_io(0, 65536, rng, /*real_payload=*/false));
  ASSERT_EQ(res.status, StorageStatus::kOk);
  EXPECT_EQ(f.client->stats().data_pkts_tx, 16u);  // 64K / 4K
  EXPECT_EQ(f.client->stats().rpcs, 1u);
}

TEST(Solar, IoSplitsAcrossSegmentsToDifferentServers) {
  SolarFixture f;
  Rng rng(6);
  const std::uint64_t start = sa::SegmentTable::kSegmentBytes - 8192;
  auto res = f.run_io(f.write_io(start, 16384, rng, false));
  ASSERT_EQ(res.status, StorageStatus::kOk);
  EXPECT_EQ(f.client->stats().rpcs, 2u);
  // The two segments live on different block servers (striped).
  EXPECT_GT(f.block_servers[0]->store().blocks_written(), 0u);
  EXPECT_GT(f.block_servers[1]->store().blocks_written(), 0u);
}

TEST(Solar, MultiplePathsAreUsed) {
  SolarFixture f;
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(f.run_io(f.write_io(static_cast<std::uint64_t>(i) * 65536,
                                  65536, rng, false))
                  .status,
              StorageStatus::kOk);
  }
  // All four paths to the peer should have carried traffic: every path
  // slot has an RTT estimate.
  auto& ps = f.client->path_set(f.clos.storage[0]->ip());
  int probed = 0;
  for (auto& p : ps.paths()) probed += (p.srtt > 0);
  EXPECT_EQ(probed, 4);
}

TEST(Solar, SurvivesRandomLossWithSelectiveRetransmit) {
  SolarFixture f;
  for (auto* core : f.clos.cores) f.net.set_loss_rate(*core, 0.05);
  Rng rng(8);
  for (int i = 0; i < 30; ++i) {
    auto res = f.run_io(f.write_io(static_cast<std::uint64_t>(i) * 32768,
                                   32768, rng, false));
    ASSERT_EQ(res.status, StorageStatus::kOk) << i;
  }
  EXPECT_GT(f.client->stats().retransmits, 0u);
}

TEST(Solar, ReadSurvivesLoss) {
  SolarFixture f;
  Rng rng(9);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(f.run_io(f.write_io(static_cast<std::uint64_t>(i) * 16384,
                                  16384, rng))
                  .status,
              StorageStatus::kOk);
  }
  for (auto* core : f.clos.cores) f.net.set_loss_rate(*core, 0.08);
  for (int i = 0; i < 8; ++i) {
    auto res = f.run_io(f.read_io(static_cast<std::uint64_t>(i) * 16384,
                                  16384));
    ASSERT_EQ(res.status, StorageStatus::kOk) << i;
    EXPECT_EQ(res.read_data.size(), 4u);
  }
}

TEST(Solar, SilentToRDeathRecoversInMilliseconds) {
  // Kill the ToR carrying some of the paths *silently* (carrier up).
  // SOLAR's consecutive-timeout failover must route around it fast.
  SolarFixture f;
  Rng rng(10);
  ASSERT_EQ(f.run_io(f.write_io(0, 4096, rng)).status, StorageStatus::kOk);

  f.net.fail_device_silent(*f.clos.compute_tors[0]);
  const TimeNs t0 = f.eng.now();
  auto res = f.run_io(f.write_io(4096, 4096, rng));
  EXPECT_EQ(res.status, StorageStatus::kOk);
  const TimeNs recovery = f.eng.now() - t0;
  // Well under a second (the paper's I/O-hang threshold); typically a few
  // packet timeouts.
  EXPECT_LT(recovery, ms(100));
}

TEST(Solar, BlackholeOnSubsetOfFlowsIsRoutedAround) {
  SolarFixture f;
  Rng rng(11);
  f.net.set_blackhole(*f.clos.cores[0], 0.5);
  for (int i = 0; i < 20; ++i) {
    const TimeNs t0 = f.eng.now();
    auto res = f.run_io(f.write_io(static_cast<std::uint64_t>(i) * 8192,
                                   8192, rng, false));
    ASSERT_EQ(res.status, StorageStatus::kOk);
    EXPECT_LT(f.eng.now() - t0, seconds(1)) << "I/O hang at " << i;
  }
}

TEST(Solar, CrcEngineFaultCaughtByAggregationAndRepaired) {
  dpu::FpgaFaults faults;
  faults.crc_engine_error_rate = 0.3;
  SolarFixture f(SolarParams{}, faults);
  Rng rng(12);
  for (int i = 0; i < 20; ++i) {
    auto wio = f.write_io(static_cast<std::uint64_t>(i) * 16384, 16384, rng);
    auto expected = wio.payload;
    auto res = f.run_io(std::move(wio));
    ASSERT_EQ(res.status, StorageStatus::kOk) << i;
  }
  EXPECT_GT(f.client->stats().agg_check_failures, 0u);
  EXPECT_GT(f.client->stats().blocks_repaired, 0u);
}

TEST(Solar, PreCrcBitflipRepairedEndToEnd) {
  dpu::FpgaFaults faults;
  faults.pre_crc_bitflip_rate = 0.2;
  SolarFixture f(SolarParams{}, faults);
  Rng rng(13);
  auto wio = f.write_io(0, 16384, rng);
  auto expected = wio.payload;
  ASSERT_EQ(f.run_io(std::move(wio)).status, StorageStatus::kOk);

  // Stop injecting faults for the read-back.
  f.dpu->fpga().params().faults = dpu::FpgaFaults{};
  auto rres = f.run_io(f.read_io(0, 16384));
  ASSERT_EQ(rres.status, StorageStatus::kOk);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rres.read_data[i].data, expected[i].data) << i;
  }
}

TEST(Solar, WithoutAggregationCheckCorruptionSlipsThrough) {
  dpu::FpgaFaults faults;
  faults.pre_crc_bitflip_rate = 1.0;  // corrupt every block, consistently
  SolarParams p;
  p.aggregate_check = false;
  SolarFixture f(p, faults);
  Rng rng(14);
  auto wio = f.write_io(0, 4096, rng);
  const auto plain = wio.payload[0].data;
  ASSERT_EQ(f.run_io(std::move(wio)).status, StorageStatus::kOk);
  // The stored block differs from what the guest wrote and nobody noticed.
  auto loc = f.segments.lookup(1, 0);
  bool corrupted = false;
  for (auto& bs : f.block_servers) {
    if (auto blk = bs->store().get(loc->segment_id, 0)) {
      corrupted = blk->data != plain;
    }
  }
  EXPECT_TRUE(corrupted);
  EXPECT_EQ(f.client->stats().agg_check_failures, 0u);
}

TEST(Solar, QosThrottlesIops) {
  SolarFixture f;
  sa::QosSpec spec;
  spec.iops_limit = 1000;
  spec.burst_ios = 1;
  f.qos.set(1, spec);
  Rng rng(15);
  ASSERT_EQ(f.run_io(f.write_io(0, 4096, rng, false)).status,
            StorageStatus::kOk);
  auto res = f.run_io(f.write_io(4096, 4096, rng, false));
  EXPECT_EQ(res.status, StorageStatus::kOk);
  EXPECT_GT(res.qos_wait_ns, us(100));
}

TEST(Solar, SolarStarPaysPcieAndCpu) {
  SolarParams star;
  star.offload = false;
  SolarFixture f_star(star);
  SolarFixture f_hw;
  Rng rng(16);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(f_star
                  .run_io(f_star.write_io(static_cast<std::uint64_t>(i) *
                                              65536,
                                          65536, rng, false))
                  .status,
              StorageStatus::kOk);
    ASSERT_EQ(f_hw
                  .run_io(f_hw.write_io(static_cast<std::uint64_t>(i) * 65536,
                                        65536, rng, false))
                  .status,
              StorageStatus::kOk);
  }
  // SOLAR* burns DPU CPU on CRC and pushes every byte through the
  // internal PCIe; offloaded SOLAR does neither. (Both pay the control
  // plane: RPC issue, path selection, per-ACK CC — §4.7.)
  EXPECT_GT(f_star.dpu->cpu().total_busy_ns(),
            f_hw.dpu->cpu().total_busy_ns() * 1.2);
  EXPECT_GE(f_star.dpu->internal_pcie().bytes_transferred(),
            2ull * 50 * 65536);  // two crossings per payload byte
  EXPECT_EQ(f_hw.dpu->internal_pcie().bytes_transferred(), 0u);
}

TEST(Solar, IntProbingKeepsPathEstimatesFresh) {
  // §4.5 future work implemented: periodic per-path probes maintain RTT
  // estimates even without application traffic.
  SolarParams p;
  p.probe_paths = true;
  p.probe_interval = ms(1);
  SolarFixture f(p);
  Rng rng(17);
  ASSERT_EQ(f.run_io(f.write_io(0, 4096, rng, false)).status,
            StorageStatus::kOk);
  // Idle for a while: probes keep flowing.
  f.eng.run_until(f.eng.now() + ms(20));
  EXPECT_GT(f.client->probes_sent(), 20u);
  auto& ps = f.client->path_set(f.clos.storage[0]->ip());
  for (auto& path : ps.paths()) {
    EXPECT_GT(path.srtt, 0) << "path " << path.port << " never probed";
  }
}

TEST(Solar, ProbingDisabledByDefault) {
  SolarFixture f;
  Rng rng(18);
  ASSERT_EQ(f.run_io(f.write_io(0, 4096, rng, false)).status,
            StorageStatus::kOk);
  f.eng.run_until(f.eng.now() + ms(20));
  EXPECT_EQ(f.client->probes_sent(), 0u);
}

TEST(Solar, UnmappedVdFailsFast) {
  SolarFixture f;
  IoRequest io;
  io.vd_id = 999;
  io.op = OpType::kRead;
  io.offset = 0;
  io.len = 4096;
  auto res = f.run_io(std::move(io));
  EXPECT_EQ(res.status, StorageStatus::kOutOfRange);
}

}  // namespace
}  // namespace repro::solar
