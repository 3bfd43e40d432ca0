#include <gtest/gtest.h>

#include "common/crc32.h"
#include "dpu/dpu.h"
#include "dpu/resources.h"
#include "sa/crypto.h"

namespace repro::dpu {
namespace {

transport::DataBlock make_block(Rng& rng, std::uint32_t len = 4096) {
  transport::DataBlock b;
  b.lba = 4096;
  b.len = len;
  b.data.resize(len);
  for (auto& v : b.data) v = static_cast<std::uint8_t>(rng.next());
  return b;
}

TEST(Fpga, CleanWriteProducesCorrectCrc) {
  FpgaPipeline fpga(FpgaParams{}, Rng(1));
  Rng rng(2);
  auto blk = make_block(rng);
  const auto original = blk.data;
  const TimeNs lat = fpga.process_write_block(7, blk, /*encrypt=*/false);
  EXPECT_GT(lat, 0);
  EXPECT_EQ(blk.data, original);
  EXPECT_EQ(blk.crc, crc32_raw(original));
}

TEST(Fpga, EncryptionAppliedAfterCrc) {
  FpgaPipeline fpga(FpgaParams{}, Rng(1), /*cipher_key=*/0xFEED);
  Rng rng(3);
  auto blk = make_block(rng);
  const auto plain = blk.data;
  fpga.process_write_block(7, blk, /*encrypt=*/true);
  EXPECT_NE(blk.data, plain);                 // ciphertext on the wire
  EXPECT_EQ(blk.crc, crc32_raw(plain));       // CRC covers the plaintext

  // The SEC stage is exactly the SA's block cipher keyed by (vd, lba).
  auto expected = plain;
  sa::BlockCipher(0xFEED).apply(7, blk.lba, expected);
  EXPECT_EQ(blk.data, expected);

  // Read path: decrypt-then-check restores plaintext and passes.
  bool hw_ok = false;
  fpga.process_read_block(7, blk, /*decrypt=*/true, hw_ok);
  EXPECT_TRUE(hw_ok);
  EXPECT_EQ(blk.data, plain);
}

TEST(Fpga, CleanReadCheckPasses) {
  FpgaPipeline fpga(FpgaParams{}, Rng(1));
  Rng rng(4);
  auto blk = make_block(rng);
  blk.crc = crc32_raw(blk.data);
  bool hw_ok = false;
  fpga.process_read_block(7, blk, false, hw_ok);
  EXPECT_TRUE(hw_ok);
}

TEST(Fpga, ReadDetectsWireCorruption) {
  FpgaPipeline fpga(FpgaParams{}, Rng(1));
  Rng rng(5);
  auto blk = make_block(rng);
  blk.crc = crc32_raw(blk.data);
  blk.data[100] ^= 0x10;  // corrupted in flight
  bool hw_ok = true;
  fpga.process_read_block(7, blk, false, hw_ok);
  EXPECT_FALSE(hw_ok);
}

TEST(Fpga, CrcEngineFaultBreaksAggregation) {
  FpgaParams params;
  params.faults.crc_engine_error_rate = 1.0;  // always faulty
  FpgaPipeline fpga(params, Rng(1));
  Rng rng(6);
  auto blk = make_block(rng);
  const auto original = blk.data;
  fpga.process_write_block(7, blk, false);
  EXPECT_NE(blk.crc, crc32_raw(original));
  EXPECT_EQ(fpga.stats().crc_engine_errors, 1u);
  // The software aggregation check rejects the hardware CRC.
  EXPECT_FALSE(crc_aggregate_check(
      std::vector<std::vector<std::uint8_t>>{original},
      std::vector<std::uint32_t>{blk.crc}));
}

TEST(Fpga, PreCrcBitflipIsInvisiblePerBlockButCaughtByAggregation) {
  FpgaParams params;
  params.faults.pre_crc_bitflip_rate = 1.0;
  FpgaPipeline fpga(params, Rng(1));
  Rng rng(7);
  auto blk = make_block(rng);
  const auto original = blk.data;
  fpga.process_write_block(7, blk, false);
  // Per-block check against the *corrupted* data passes...
  EXPECT_EQ(blk.crc, crc32_raw(blk.data));
  EXPECT_NE(blk.data, original);
  // ...but against the guest's original data the aggregation fails.
  EXPECT_FALSE(crc_aggregate_check(
      std::vector<std::vector<std::uint8_t>>{original},
      std::vector<std::uint32_t>{blk.crc}));
}

TEST(Fpga, PostCrcBitflipCaughtByReceiverVerify) {
  FpgaParams params;
  params.faults.data_bitflip_rate = 1.0;
  FpgaPipeline fpga(params, Rng(1));
  Rng rng(8);
  auto blk = make_block(rng);
  const auto original = blk.data;
  fpga.process_write_block(7, blk, false);
  EXPECT_EQ(blk.crc, crc32_raw(original));    // CRC is of the clean data
  EXPECT_NE(crc32_raw(blk.data), blk.crc);    // wire data is corrupt
}

TEST(Fpga, FaultRatesAreApproximatelyRespected) {
  FpgaParams params;
  params.faults.data_bitflip_rate = 0.1;
  FpgaPipeline fpga(params, Rng(42));
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    auto blk = make_block(rng, 256);
    fpga.process_write_block(1, blk, false);
  }
  EXPECT_NEAR(static_cast<double>(fpga.stats().data_bitflips), 200.0, 60.0);
}

TEST(Resources, DefaultConfigMatchesPaperTable3) {
  auto usage = solar_resource_usage(SolarHwConfig{});
  ASSERT_EQ(usage.size(), 6u);  // 5 modules + total
  auto find = [&](const std::string& name) -> const ModuleUsage& {
    for (const auto& m : usage) {
      if (m.name == name) return m;
    }
    ADD_FAILURE() << "missing " << name;
    return usage.front();
  };
  // Paper Table 3: Addr 5.1/8.1, Block 0.2/8.6, QoS 0.1/0.4, SEC 2.8/0.9,
  // CRC 0.3/0.0, Total 8.5/18.2 (LUT% / BRAM%).
  EXPECT_NEAR(find("Addr").lut_pct, 5.1, 0.3);
  EXPECT_NEAR(find("Addr").bram_pct, 8.1, 0.3);
  EXPECT_NEAR(find("Block").lut_pct, 0.2, 0.1);
  EXPECT_NEAR(find("Block").bram_pct, 8.6, 0.3);
  EXPECT_NEAR(find("QoS").lut_pct, 0.1, 0.05);
  EXPECT_NEAR(find("QoS").bram_pct, 0.4, 0.15);
  EXPECT_NEAR(find("SEC").lut_pct, 2.8, 0.2);
  EXPECT_NEAR(find("SEC").bram_pct, 0.9, 0.2);
  EXPECT_NEAR(find("CRC").lut_pct, 0.3, 0.1);
  EXPECT_NEAR(find("CRC").bram_pct, 0.0, 0.01);
  EXPECT_NEAR(find("Total").lut_pct, 8.5, 0.5);
  EXPECT_NEAR(find("Total").bram_pct, 18.2, 0.7);
}

TEST(Resources, UsageScalesWithTableSizes) {
  SolarHwConfig small;
  SolarHwConfig big;
  big.addr_entries = small.addr_entries * 4;
  const auto u_small = solar_resource_usage(small);
  const auto u_big = solar_resource_usage(big);
  EXPECT_GT(u_big[0].bram_bits, u_small[0].bram_bits * 3);
  EXPECT_GT(u_big[0].luts, u_small[0].luts * 2);
}

TEST(Dpu, ResourcesAreWiredTogether) {
  sim::Engine eng;
  AliDpu dpu(eng, DpuParams{}, Rng(1));
  EXPECT_EQ(dpu.cpu().size(), 6);
  EXPECT_LT(dpu.internal_pcie().bandwidth(), gbps(50));  // the bottleneck
  EXPECT_GT(dpu.guest_dma().bandwidth(), dpu.internal_pcie().bandwidth());
}

}  // namespace
}  // namespace repro::dpu
