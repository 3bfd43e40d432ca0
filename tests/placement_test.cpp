// Placement control-plane tests (src/placement): rack-major schedule
// algebra and its fallbacks, legacy-policy bit-identity against the inline
// layout, params JSON round-trip + strict parsing through ScenarioSpec,
// exposure-ordered rebuild drain on a live EC fleet, the rack-domain
// durability-oracle variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "chaos/ec_oracle.h"
#include "common/crc32.h"
#include "ebs/cluster.h"
#include "ebs/scenario.h"
#include "ec/maintenance.h"
#include "placement/cluster_view.h"
#include "placement/params.h"
#include "placement/policy.h"
#include "sa/segment_table.h"

namespace repro::placement {
namespace {

using transport::IoRequest;
using transport::IoResult;
using transport::OpType;
using transport::StorageStatus;

// ---------------------------------------------------------------------------
// Schedule algebra.

/// Three racks of two servers: ip 10+i is rack i/2 (the Clos arithmetic).
ClusterView three_racks() {
  ClusterView view;
  for (int i = 0; i < 6; ++i) {
    view.set_rack(static_cast<net::IpAddr>(10 + i), i / 2);
  }
  return view;
}

TEST(RackAwareSchedule, EveryStripeWindowSpansDistinctRacks) {
  ClusterView view = three_racks();
  RackAwareSpread policy;
  // Rotated candidate order, the way create_vd hands it over.
  const std::vector<net::IpAddr> candidates = {11, 12, 13, 14, 15, 10};
  StripeGeometry geo;
  geo.k = 2;
  geo.m = 1;
  geo.num_segments = 48;
  const auto schedule = policy.pick_stripe(1, geo, candidates, view);
  ASSERT_EQ(schedule.size(), candidates.size());
  EXPECT_EQ(std::set<net::IpAddr>(schedule.begin(), schedule.end()),
            std::set<net::IpAddr>(candidates.begin(), candidates.end()));
  // Rack-major: slot j sits in rack order[j % 3], so every window of
  // k+m = 3 consecutive slots (mod len) touches 3 distinct racks and
  // 3 distinct servers — the whole-rack fail-stop bound.
  const int need = geo.k + geo.m;
  for (std::size_t g = 0; g < schedule.size(); ++g) {
    std::set<int> racks;
    std::set<net::IpAddr> servers;
    for (int c = 0; c < need; ++c) {
      const net::IpAddr s = schedule[(g + static_cast<std::size_t>(c)) %
                                     schedule.size()];
      racks.insert(view.rack_of(s));
      servers.insert(s);
    }
    EXPECT_EQ(racks.size(), 3u) << "stripe " << g;
    EXPECT_EQ(servers.size(), 3u) << "stripe " << g;
  }
}

TEST(RackAwareSchedule, UnevenRacksTruncateToKeepWindowsDistinct) {
  // Racks of size 2, 2 and 3: the schedule must truncate every rack to the
  // smallest (2), or a mod-length window could revisit a server.
  ClusterView view;
  const std::vector<net::IpAddr> candidates = {10, 11, 20, 21, 30, 31, 32};
  view.set_rack(10, 0);
  view.set_rack(11, 0);
  view.set_rack(20, 1);
  view.set_rack(21, 1);
  view.set_rack(30, 2);
  view.set_rack(31, 2);
  view.set_rack(32, 2);
  RackAwareSpread policy;
  StripeGeometry geo;
  geo.k = 3;
  geo.m = 2;
  const auto schedule = policy.pick_stripe(1, geo, candidates, view);
  ASSERT_EQ(schedule.size(), 6u);  // 3 racks x min size 2
  const int need = geo.k + geo.m;
  for (std::size_t g = 0; g < schedule.size(); ++g) {
    std::set<net::IpAddr> servers;
    for (int c = 0; c < need; ++c) {
      servers.insert(
          schedule[(g + static_cast<std::size_t>(c)) % schedule.size()]);
    }
    EXPECT_EQ(servers.size(), static_cast<std::size_t>(need))
        << "stripe " << g << " revisits a server";
  }
}

TEST(RackAwareSchedule, FallsBackToCandidatesWhenSpreadImpossible) {
  RackAwareSpread policy;
  StripeGeometry geo;
  geo.k = 2;
  geo.m = 1;
  const std::vector<net::IpAddr> candidates = {10, 11, 12, 13};

  // Unknown rack membership: keep the legacy layout.
  ClusterView dark;
  EXPECT_EQ(policy.pick_stripe(1, geo, candidates, dark), candidates);

  // A single rack has nothing to spread across.
  ClusterView one_rack;
  for (const net::IpAddr s : candidates) one_rack.set_rack(s, 0);
  EXPECT_EQ(policy.pick_stripe(1, geo, candidates, one_rack), candidates);

  // Infeasible: ceil((k+m)/racks) exceeds the smallest rack. Two racks of
  // sizes 3 and 1 truncate to length 2 < k+m.
  ClusterView skewed;
  skewed.set_rack(10, 0);
  skewed.set_rack(11, 0);
  skewed.set_rack(12, 0);
  skewed.set_rack(13, 1);
  geo.k = 2;
  geo.m = 2;
  EXPECT_EQ(policy.pick_stripe(1, geo, candidates, skewed), candidates);
}

TEST(ExposureAwarePolicy, StartsAtLeastLoadedRackAndFeedsTheView) {
  ClusterView view = three_racks();
  ExposureAware policy;
  StripeGeometry geo;
  geo.k = 2;
  geo.m = 1;
  geo.num_segments = 12;
  const std::vector<net::IpAddr> candidates = {10, 11, 12, 13, 14, 15};

  // First VD: all racks empty, ties break to the lowest rack id.
  const auto first = policy.pick_stripe(1, geo, candidates, view);
  ASSERT_EQ(first.size(), 6u);
  EXPECT_EQ(view.rack_of(first[0]), 0);
  // 12 segments over 6 slots: 2 per slot, 4 per rack.
  for (int r = 0; r < 3; ++r) EXPECT_EQ(view.rack_fragments(r), 4u);

  // Load rack 0 and 1 further: the next VD must start its rotation at the
  // now-least-loaded rack 2 (rotation, so the cycle order is 2, 0, 1).
  view.add_rack_fragments(0, 10);
  view.add_rack_fragments(1, 10);
  const auto second = policy.pick_stripe(2, geo, candidates, view);
  ASSERT_EQ(second.size(), 6u);
  EXPECT_EQ(view.rack_of(second[0]), 2);
  EXPECT_EQ(view.rack_of(second[1]), 0);
  EXPECT_EQ(view.rack_of(second[2]), 1);
}

// ---------------------------------------------------------------------------
// Legacy identity: the policy seam must be invisible under LegacyRotated.

TEST(LegacyPolicy, BitIdenticalToInlineLayout) {
  sa::SegmentTable inline_table;
  sa::SegmentTable policy_table;
  ClusterView view = three_racks();
  LegacyRotated legacy;
  policy_table.set_policy(&legacy, &view);

  const std::vector<net::IpAddr> servers = {11, 12, 13, 14, 15, 10};
  inline_table.map_disk(1, 16ull << 20, servers);
  policy_table.map_disk(1, 16ull << 20, servers);
  inline_table.map_disk_ec(2, 24ull << 20, servers, 2, 1);
  policy_table.map_disk_ec(2, 24ull << 20, servers, 2, 1);

  EXPECT_EQ(inline_table.stripe_servers(1), policy_table.stripe_servers(1));
  EXPECT_EQ(inline_table.stripe_servers(2), policy_table.stripe_servers(2));
  for (std::uint64_t vd : {1ull, 2ull}) {
    for (std::uint64_t off = 0; off < (24ull << 20);
         off += sa::SegmentTable::kSegmentBytes) {
      const auto a = inline_table.lookup(vd, off);
      const auto b = policy_table.lookup(vd, off);
      ASSERT_EQ(a.has_value(), b.has_value()) << "vd " << vd << " off " << off;
      if (a.has_value()) {
        EXPECT_EQ(a->segment_id, b->segment_id);
        EXPECT_EQ(a->block_server, b->block_server);
      }
    }
  }
  // The span accessor views the same interned pool the copying one returns.
  const auto span = policy_table.stripe_server_span(2);
  const auto copy = policy_table.stripe_servers(2);
  ASSERT_EQ(span.size(), copy.size());
  EXPECT_TRUE(std::equal(span.begin(), span.end(), copy.begin()));
}

// ---------------------------------------------------------------------------
// Params JSON through the scenario layer.

TEST(PlacementParamsJson, RoundTripsThroughScenario) {
  ebs::ScenarioSpec spec;
  spec.placement.enabled = true;
  spec.placement.policy = PolicyKind::kRackAwareSpread;
  ebs::ScenarioSpec parsed;
  std::string error;
  ASSERT_TRUE(ebs::scenario_from_json(spec.to_json(), &parsed, &error))
      << error;
  EXPECT_TRUE(parsed.placement.enabled);
  EXPECT_EQ(parsed.placement.policy, PolicyKind::kRackAwareSpread);

  // Absent block = subsystem off = the historical spec.
  ebs::ScenarioSpec absent;
  ASSERT_TRUE(
      ebs::scenario_from_json(ebs::ScenarioSpec{}.to_json(), &absent, &error))
      << error;
  EXPECT_FALSE(absent.placement.enabled);
}

TEST(PlacementParamsJson, StrictParseRejectsTyposAndUnknownPolicies) {
  ebs::ScenarioSpec out;
  std::string error;
  // A typo'd knob must not quietly run the default.
  EXPECT_FALSE(ebs::scenario_from_json(
      R"({"placement":{"enabled":true,"polcy":"rack-aware"}})", &out, &error));
  EXPECT_NE(error.find("scenario.placement"), std::string::npos) << error;
  // Unknown policy spelling is an error, not legacy-by-accident.
  EXPECT_FALSE(ebs::scenario_from_json(
      R"({"placement":{"enabled":true,"policy":"rackaware"}})", &out, &error));
  // The removed cluster admission gate is an unknown key, not a no-op.
  EXPECT_FALSE(ebs::scenario_from_json(
      R"({"placement":{"enabled":true,"cluster_admission":true}})", &out,
      &error));
  EXPECT_NE(error.find("cluster_admission"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Live-fleet helpers (same shape as the ec_test drivers).

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

ebs::ClusterParams placement_fleet(int k, int m, PolicyKind policy,
                                   bool enabled = true) {
  ebs::ClusterParams p;
  p.topo.compute_servers = 1;
  p.topo.storage_servers = 6;
  p.topo.servers_per_rack = 2;  // racks {0,1},{2,3},{4,5}
  p.stack = ebs::StackKind::kSolar;
  p.seed = 11;
  p.block_server.store_payload = true;
  p.ec.enabled = true;
  p.ec.k = k;
  p.ec.m = m;
  p.placement.enabled = enabled;
  p.placement.policy = policy;
  return p;
}

// ---------------------------------------------------------------------------
// Rack-domain durability oracle: the same whole-rack outage that is data
// loss under the legacy layout is survivable under RackAwareSpread.

TEST(RackDurabilityOracle, RackAwareSurvivesWhatLegacyLoses) {
  auto run_layout = [](PolicyKind policy, bool enabled) {
    sim::Engine eng;
    ebs::Cluster cluster(eng, placement_fleet(2, 1, policy, enabled));
    const std::uint64_t vd = cluster.create_vd(24ull << 20);
    // Commit both data cells of stripe 0 row 0 so recoverability really
    // needs k = 2 of the 3 fragment values.
    EXPECT_EQ(run_one_io(eng, cluster, write_io(vd, 0, 4096)).status,
              StorageStatus::kOk);
    EXPECT_EQ(run_one_io(eng, cluster,
                         write_io(vd, sa::SegmentTable::kSegmentBytes, 4096))
                  .status,
              StorageStatus::kOk);
    std::vector<int> loss_racks;
    for (int rack = 0; rack < 3; ++rack) {
      if (!chaos::audit_ec_rack_durability(cluster, rack, eng.now()).empty()) {
        loss_racks.push_back(rack);
      }
    }
    return loss_racks;
  };

  // Legacy rotated layout: vd 1's pool starts at server 1, so stripe 0
  // lands on servers 1, 2, 3 — rack 1 holds two of the three fragments and
  // its fail-stop is unrecoverable data loss.
  EXPECT_FALSE(run_layout(PolicyKind::kLegacyRotated, false).empty());

  // RackAwareSpread bounds any rack to ceil(3/3) = 1 fragment per stripe:
  // every single-rack fail-stop stays recoverable.
  EXPECT_TRUE(run_layout(PolicyKind::kRackAwareSpread, true).empty());
}

// ---------------------------------------------------------------------------
// Exposure-ordered rebuild drain.

TEST(ExposureDrain, MostExposedSegmentsDrainFirst) {
  sim::Engine eng;
  ebs::Cluster cluster(eng,
                       placement_fleet(2, 2, PolicyKind::kExposureAware));
  // 64 MB, k = 2: 32 data segments = 16 stripes over a 6-slot schedule.
  const std::uint64_t vd = cluster.create_vd(64ull << 20);
  const auto pool = cluster.segments().stripe_servers(vd);
  ASSERT_EQ(pool.size(), 6u);

  // One committed row per stripe (first data cell) so every rebuild moves
  // real bytes.
  for (std::uint64_t g = 0; g < 16; ++g) {
    ASSERT_EQ(run_one_io(eng, cluster,
                         write_io(vd,
                                  g * 2 * sa::SegmentTable::kSegmentBytes,
                                  4096))
                  .status,
              StorageStatus::kOk);
  }

  // Fail adjacent schedule slots 0 and 1: stripes whose 4-slot window
  // covers both (g % 6 in {0, 4, 5}) are doubly exposed, g % 6 in {1, 3}
  // singly, g % 6 == 2 not at all. Adjacent slots keep every doubly-lost
  // pair rebuildable in any order (data+data decodes from the two live
  // parities, parity+parity recomputes from the live data; the mixed
  // g % 6 == 5 pair queues its data fragment first). Stop the NICs for
  // real so probe reads cannot revive the servers mid-drain.
  const net::IpAddr a = pool[0];
  const net::IpAddr b = pool[1];
  auto nic_of = [&](net::IpAddr ip) -> net::Nic& {
    for (int i = 0; i < cluster.num_storage(); ++i) {
      if (cluster.storage(i).nic().ip() == ip) return cluster.storage(i).nic();
    }
    ADD_FAILURE() << "no storage nic with ip " << ip;
    return cluster.storage(0).nic();
  };
  cluster.network().fail_device_stop(nic_of(a));
  cluster.network().fail_device_stop(nic_of(b));
  ec::EcClient* ec = cluster.compute(0).ec();
  // Mark both dead in the client first so the first rebuild already
  // excludes the second server from its source reads.
  ec->mark_server(a, false);
  ec->mark_server(b, false);
  ec::MaintenanceAgent* agent = cluster.compute(0).maintenance();
  ASSERT_NE(agent, nullptr);
  // The first force_server_down pumps its first rebuild synchronously;
  // seed the control plane with the full outage first so that pop already
  // sees both deaths (the cluster view learns of a correlated failure
  // before per-segment repair begins).
  cluster.placement_view().set_health(b, false);
  agent->force_server_down(a);
  agent->force_server_down(b);

  // Stopped NICs keep SOLAR path probes alive, so drain in bounded slices.
  const TimeNs deadline = eng.now() + seconds(20);
  while (!agent->idle() && eng.now() < deadline) {
    eng.run_until(eng.now() + ms(50));
  }
  ASSERT_TRUE(agent->idle())
      << "backlog=" << agent->rebuild_backlog()
      << " stalled=" << agent->stalled_segments()
      << " pending_repairs=" << agent->pending_repairs()
      << " rebuilt=" << agent->stats().segments_rebuilt
      << " log=" << agent->rebuild_log().size();

  const auto& log = agent->rebuild_log();
  // Each failed slot backs 10 segments (16 stripes, 4 fragments each over
  // 6 slots) — every one must have been genuinely rebuilt.
  ASSERT_EQ(log.size(), 20u);
  int doubly = 0;
  for (const auto& rec : log) doubly += rec.exposure >= 2 ? 1 : 0;
  // Seven stripes are doubly exposed; their first-rebuilt segment pops at
  // exposure 2 (the sibling then drops to 1 — its lost fragment was
  // restored — so the exposure-ordered pump drains one segment per
  // doubly-exposed stripe before any singly-exposed work).
  EXPECT_EQ(doubly, 7);
  // Drain-order invariant: once the most-exposed class is visible, at-pop
  // exposure never increases (no new deaths arrive after the second stop).
  std::size_t first2 = log.size();
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].exposure >= 2) {
      first2 = i;
      break;
    }
  }
  ASSERT_LT(first2, log.size());
  for (std::size_t i = first2 + 1; i < log.size(); ++i) {
    EXPECT_LE(log[i].exposure, log[i - 1].exposure)
        << "at-pop exposure increased at record " << i;
  }
}

}  // namespace
}  // namespace repro::placement
