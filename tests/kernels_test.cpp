// Cross-tier property suite for the dispatched data-plane kernels
// (src/kernels). The determinism invariant under test: every tier — scalar,
// SSSE3, AVX2, and the CLMUL CRC the vector tiers carry — returns
// BIT-IDENTICAL results for every input, so seeded simulation output can
// never depend on the host ISA. References are computed independently
// (peasant-multiply GF(256), bitwise CRC), not against another tier, so a
// shared table bug can't hide.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "kernels/gf256.h"
#include "kernels/kernels.h"

namespace repro::kernels {
namespace {

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

/// Russian-peasant GF(256) multiply — no tables, the independent reference.
std::uint8_t peasant_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t r = 0;
  while (b != 0) {
    if (b & 1) r ^= a;
    const bool hi = (a & 0x80) != 0;
    a = static_cast<std::uint8_t>(a << 1);
    if (hi) a ^= 0x1D;  // x^8 = x^4 + x^3 + x^2 + 1 (poly 0x11D)
    b >>= 1;
  }
  return r;
}

/// Bitwise CRC-32 (reflected, poly 0xEDB88320), raw register form.
std::uint32_t bitwise_crc(std::uint32_t state, const std::uint8_t* p,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    state ^= p[i];
    for (int b = 0; b < 8; ++b) {
      state = (state & 1) ? (0xEDB88320u ^ (state >> 1)) : (state >> 1);
    }
  }
  return state;
}

/// Runs `fn` under each available tier, restoring the entry tier after.
template <typename Fn>
void for_each_tier(Fn fn) {
  const Tier entry = active().tier;
  for (Tier t : available_tiers()) {
    ASSERT_TRUE(set_tier(t)) << tier_name(t);
    fn(t);
  }
  ASSERT_TRUE(set_tier(entry));
}

TEST(Gf256, MulMatchesPeasantExhaustive) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(gf256_mul(static_cast<std::uint8_t>(a),
                          static_cast<std::uint8_t>(b)),
                peasant_mul(static_cast<std::uint8_t>(a),
                            static_cast<std::uint8_t>(b)))
          << a << " * " << b;
    }
  }
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf256_mul(ua, gf256_inv(ua)), 1) << a;
  }
}

TEST(KernelDispatch, TierNamesRoundTrip) {
  for (Tier t : {Tier::kScalar, Tier::kSsse3, Tier::kAvx2}) {
    const auto back = tier_from_string(tier_name(t));
    ASSERT_TRUE(back.has_value()) << tier_name(t);
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(tier_from_string("sse9").has_value());
  EXPECT_FALSE(tier_from_string("").has_value());
}

TEST(KernelDispatch, AvailableTiersSelectable) {
  const auto tiers = available_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(best_tier(), tiers.back());
  for_each_tier([](Tier t) {
    EXPECT_EQ(active().tier, t);
    // Scalar pins the whole data plane scalar, CLMUL only rides vector tiers.
    if (t == Tier::kScalar) {
      EXPECT_FALSE(active().crc_is_clmul);
    }
  });
}

// mul_acc: every tier == independent reference, for every length 0..257 and
// unaligned heads on both input and output.
TEST(KernelProperty, MulAccMatchesReference) {
  const std::vector<std::uint8_t> coefs = {0,    1,    2,    3,   0x1D,
                                           0x53, 0x80, 0xC6, 0xFF};
  const auto base_in = pattern(257 + 8, 42);
  for (std::size_t len = 0; len <= 257; ++len) {
    for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      const std::uint8_t c = coefs[(len + off) % coefs.size()];
      const std::uint8_t* in = base_in.data() + off;
      // Independent reference accumulate.
      std::vector<std::uint8_t> want = pattern(len + off + 8, 7);
      for (std::size_t i = 0; i < len; ++i) {
        want[off + i] ^= peasant_mul(c, in[i]);
      }
      for_each_tier([&](Tier t) {
        std::vector<std::uint8_t> out = pattern(len + off + 8, 7);
        active().gf_mul_acc(c, in, out.data() + off, len);
        ASSERT_EQ(out, want) << tier_name(t) << " c=" << int(c)
                             << " len=" << len << " off=" << off;
      });
    }
  }
}

// Fused encode == per-row reference for EVERY geometry up to (k,m) = (32,96)
// (the codec's k cap and the largest m with k + m <= 128), with a mix of
// real and absent (nullptr) fragments and a tail-exercising length.
TEST(KernelProperty, EcEncodeFusedAllGeometries) {
  const std::size_t n = 37;  // odd: vector main loop + scalar tail
  for (int k = 1; k <= 32; ++k) {
    for (int m = 1; m <= 96 && k + m <= 128; ++m) {
      // Cauchy-style coefficients keep rows distinct; sprinkle 0s and 1s.
      std::vector<std::vector<std::uint8_t>> coef(
          static_cast<std::size_t>(m),
          std::vector<std::uint8_t>(static_cast<std::size_t>(k)));
      std::vector<const std::uint8_t*> coef_rows(static_cast<std::size_t>(m));
      for (int q = 0; q < m; ++q) {
        for (int p = 0; p < k; ++p) {
          std::uint8_t c = static_cast<std::uint8_t>((q * 37 + p * 11 + 1));
          if ((q + p) % 13 == 0) c = 0;
          if ((q + p) % 13 == 1) c = 1;
          coef[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)] = c;
        }
        coef_rows[static_cast<std::size_t>(q)] =
            coef[static_cast<std::size_t>(q)].data();
      }
      std::vector<std::vector<std::uint8_t>> data(
          static_cast<std::size_t>(k));
      std::vector<const std::uint8_t*> frags(static_cast<std::size_t>(k),
                                             nullptr);
      for (int p = 0; p < k; ++p) {
        if (p % 5 == 3) continue;  // absent fragment
        data[static_cast<std::size_t>(p)] =
            pattern(n, static_cast<std::uint64_t>(k * 1000 + m * 10 + p));
        frags[static_cast<std::size_t>(p)] =
            data[static_cast<std::size_t>(p)].data();
      }
      // Independent reference: bytewise table multiply per row.
      std::vector<std::vector<std::uint8_t>> want(
          static_cast<std::size_t>(m), std::vector<std::uint8_t>(n, 0));
      for (int p = 0; p < k; ++p) {
        if (frags[static_cast<std::size_t>(p)] == nullptr) continue;
        for (int q = 0; q < m; ++q) {
          const std::uint8_t c =
              coef[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)];
          auto& row = want[static_cast<std::size_t>(q)];
          for (std::size_t i = 0; i < n; ++i) {
            row[i] ^= gf256_mul(c, frags[static_cast<std::size_t>(p)][i]);
          }
        }
      }
      for_each_tier([&](Tier t) {
        std::vector<std::vector<std::uint8_t>> got(
            static_cast<std::size_t>(m),
            std::vector<std::uint8_t>(n, 0xAA));  // kernel must zero these
        std::vector<std::uint8_t*> parity(static_cast<std::size_t>(m));
        for (int q = 0; q < m; ++q) {
          parity[static_cast<std::size_t>(q)] =
              got[static_cast<std::size_t>(q)].data();
        }
        active().ec_encode(static_cast<std::size_t>(k),
                           static_cast<std::size_t>(m), coef_rows.data(),
                           frags.data(), parity.data(), n);
        ASSERT_EQ(got, want)
            << tier_name(t) << " k=" << k << " m=" << m;
      });
    }
  }
}

// CRC32: every tier == bitwise reference for lengths 0..257 at unaligned
// offsets, arbitrary entry state, plus streaming splits of a large buffer
// (the CLMUL kernel's >= 64-byte fold path and its state hand-off).
TEST(KernelProperty, Crc32MatchesBitwiseReference) {
  const auto buf = pattern(257 + 8, 99);
  for (std::size_t len = 0; len <= 257; ++len) {
    for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      const std::uint32_t state =
          0xDEADBEEFu * static_cast<std::uint32_t>(len + off) + 1u;
      const std::uint32_t want = bitwise_crc(state, buf.data() + off, len);
      for_each_tier([&](Tier t) {
        ASSERT_EQ(active().crc32_update(state, buf.data() + off, len), want)
            << tier_name(t) << " len=" << len << " off=" << off;
      });
    }
  }
}

TEST(KernelProperty, Crc32StreamingSplitsLargeBuffer) {
  const auto buf = pattern(1 << 20, 5);
  const std::uint32_t want = bitwise_crc(0, buf.data(), buf.size());
  for_each_tier([&](Tier t) {
    EXPECT_EQ(active().crc32_update(0, buf.data(), buf.size()), want)
        << tier_name(t);
    // Chained updates across awkward split points must agree too.
    for (std::size_t split : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{4096},
                              std::size_t{65537}}) {
      std::uint32_t state = active().crc32_update(0, buf.data(), split);
      state = active().crc32_update(state, buf.data() + split,
                                    buf.size() - split);
      EXPECT_EQ(state, want) << tier_name(t) << " split=" << split;
    }
  });
}

TEST(KernelProperty, XorAccMatchesReference) {
  const auto src = pattern(257 + 8, 11);
  for (std::size_t len = 0; len <= 257; ++len) {
    for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      std::vector<std::uint8_t> want = pattern(len + off + 8, 13);
      for (std::size_t i = 0; i < len; ++i) want[off + i] ^= src[off + i];
      for_each_tier([&](Tier t) {
        std::vector<std::uint8_t> dst = pattern(len + off + 8, 13);
        active().xor_acc(dst.data() + off, src.data() + off, len);
        ASSERT_EQ(dst, want) << tier_name(t) << " len=" << len
                             << " off=" << off;
      });
    }
  }
}

// The SOLAR aggregate check (common/crc32 rides the kernels) must accept and
// reject identically under every tier.
TEST(KernelProperty, CrcAggregateCheckAgreesAcrossTiers) {
  std::vector<std::vector<std::uint8_t>> blocks;
  for (int i = 0; i < 16; ++i) {
    blocks.push_back(pattern(4096, static_cast<std::uint64_t>(i) + 1));
  }
  std::vector<std::uint32_t> crcs;
  for (const auto& b : blocks) crcs.push_back(crc32_raw(b));
  for_each_tier([&](Tier t) {
    EXPECT_TRUE(crc_aggregate_check(blocks, crcs)) << tier_name(t);
    auto bad_blocks = blocks;
    bad_blocks[7][123] ^= 0x40;
    EXPECT_FALSE(crc_aggregate_check(bad_blocks, crcs)) << tier_name(t);
    auto bad_crcs = crcs;
    bad_crcs[3] ^= 1;
    EXPECT_FALSE(crc_aggregate_check(blocks, bad_crcs)) << tier_name(t);
  });
}

}  // namespace
}  // namespace repro::kernels
