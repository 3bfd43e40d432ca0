#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/nic.h"
#include "net/packet.h"
#include "net/switch.h"
#include "net/topology.h"
#include "sim/engine.h"
#include "sim/sharded.h"

namespace repro::net {
namespace {

Packet make_pkt(IpAddr src, IpAddr dst, std::uint16_t sport,
                std::uint16_t dport, std::uint32_t size,
                Proto proto = Proto::kUdp) {
  Packet p;
  p.flow = FlowKey{src, dst, sport, dport, proto};
  p.size_bytes = size;
  return p;
}

struct Fixture {
  sim::Engine eng;
  Network net{eng, NetworkParams{}, 12345};
};

TEST(FlowHash, DeterministicAndSaltSensitive) {
  const FlowKey f{1, 2, 100, 200, Proto::kUdp};
  EXPECT_EQ(flow_hash(f, 7), flow_hash(f, 7));
  EXPECT_NE(flow_hash(f, 7), flow_hash(f, 8));
  FlowKey g = f;
  g.src_port = 101;
  EXPECT_NE(flow_hash(f, 7), flow_hash(g, 7));
}

TEST(PacketApp, TypedPayloadRoundTrip) {
  Packet p;
  emplace_app<int>(p, 42);
  auto v = app_as<int>(p);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(app_as<double>(p), nullptr);
}

TEST(TwoHosts, DeliversPacket) {
  Fixture f;
  auto t = build_two_hosts(f.net, gbps(10), us(1));
  int delivered = 0;
  t.b->set_deliver([&](Packet& pkt) {
    ++delivered;
    EXPECT_EQ(pkt.flow.dst_ip, t.b->ip());
    EXPECT_GT(pkt.id, 0u);
  });
  f.eng.at(0, [&] {
    t.a->send_packet(make_pkt(t.a->ip(), t.b->ip(), 10, 20, 1500));
  });
  f.eng.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(t.a->tx_packets(), 1u);
  EXPECT_EQ(t.b->rx_packets(), 1u);
}

TEST(TwoHosts, LatencyIsSerializationPlusPropagationPerHop) {
  Fixture f;
  // 1 Gbps, 10us prop: 1500B = 12us serialization per hop, 2 hops.
  auto t = build_two_hosts(f.net, gbps(1), us(10));
  TimeNs arrived = -1;
  t.b->set_deliver([&](Packet&) { arrived = f.eng.now(); });
  f.eng.at(0, [&] {
    t.a->send_packet(make_pkt(t.a->ip(), t.b->ip(), 1, 2, 1500));
  });
  f.eng.run();
  EXPECT_EQ(arrived, 2 * (us(12) + us(10)));
}

TEST(TwoHosts, QueueFullDropsTail) {
  Fixture f;
  // Tiny queue: 3000 bytes capacity, slow link.
  auto t = build_two_hosts(f.net, gbps(1), us(1), 3000);
  int delivered = 0;
  t.b->set_deliver([&](Packet&) { ++delivered; });
  f.eng.at(0, [&] {
    for (int i = 0; i < 10; ++i) {
      t.a->send_packet(make_pkt(t.a->ip(), t.b->ip(), 1, 2, 1500));
    }
  });
  f.eng.run();
  // One in flight + 2 queued at the NIC; the rest dropped there or at sw.
  EXPECT_LT(delivered, 10);
  EXPECT_GT(f.net.drops().queue_full, 0u);
  EXPECT_EQ(delivered + static_cast<int>(f.net.drops().queue_full), 10);
}

TEST(TwoHosts, HighPriorityOvertakesBestEffort) {
  Fixture f;
  auto t = build_two_hosts(f.net, gbps(1), us(1));
  std::vector<std::uint8_t> arrival_order;
  t.b->set_deliver([&](Packet& pkt) { arrival_order.push_back(pkt.priority); });
  f.eng.at(0, [&] {
    // Three best-effort then one priority packet; priority jumps the queue
    // (but not the packet already serializing).
    for (int i = 0; i < 3; ++i) {
      t.a->send_packet(make_pkt(t.a->ip(), t.b->ip(), 1, 2, 1500));
    }
    Packet hi = make_pkt(t.a->ip(), t.b->ip(), 9, 9, 1500);
    hi.priority = 0;
    t.a->send_packet(std::move(hi));
  });
  f.eng.run();
  ASSERT_EQ(arrival_order.size(), 4u);
  EXPECT_EQ(arrival_order[1], 0);  // priority arrives second
}

TEST(TwoHosts, RandomLossDropsApproximatelyRate) {
  Fixture f;
  auto t = build_two_hosts(f.net, gbps(100), ns(100));
  int delivered = 0;
  t.b->set_deliver([&](Packet&) { ++delivered; });
  f.net.set_loss_rate(*t.sw, 0.5);
  f.eng.at(0, [&] {
    for (int i = 0; i < 2000; ++i) {
      t.a->send_packet(make_pkt(t.a->ip(), t.b->ip(),
                                static_cast<std::uint16_t>(i), 2, 100));
    }
  });
  f.eng.run();
  EXPECT_NEAR(delivered, 1000, 120);
  EXPECT_EQ(f.net.drops().random_loss, 2000u - static_cast<unsigned>(delivered));
}

TEST(TwoHosts, SilentDeadDeviceDropsEverything) {
  Fixture f;
  auto t = build_two_hosts(f.net, gbps(10), us(1));
  int delivered = 0;
  t.b->set_deliver([&](Packet&) { ++delivered; });
  f.net.fail_device_silent(*t.sw);
  f.eng.at(0, [&] {
    t.a->send_packet(make_pkt(t.a->ip(), t.b->ip(), 1, 2, 100));
  });
  f.eng.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(f.net.drops().device_dead, 1u);
  // Repair restores forwarding.
  f.net.repair_device(*t.sw);
  f.eng.at(f.eng.now(), [&] {
    t.a->send_packet(make_pkt(t.a->ip(), t.b->ip(), 1, 2, 100));
  });
  f.eng.run();
  EXPECT_EQ(delivered, 1);
}

TEST(TwoHosts, BlackholeDropsOnlyAffectedFlows) {
  Fixture f;
  auto t = build_two_hosts(f.net, gbps(100), ns(100));
  int delivered = 0;
  t.b->set_deliver([&](Packet&) { ++delivered; });
  f.net.set_blackhole(*t.sw, 0.25);
  constexpr int kFlows = 4000;
  f.eng.at(0, [&] {
    for (int i = 0; i < kFlows; ++i) {
      t.a->send_packet(make_pkt(t.a->ip(), t.b->ip(),
                                static_cast<std::uint16_t>(i % 65535), 2, 100));
    }
  });
  f.eng.run();
  EXPECT_NEAR(delivered, kFlows * 3 / 4, kFlows / 20);
  // Deterministic per flow: an affected flow stays affected.
  const auto drops_before = f.net.drops().blackhole;
  f.eng.at(f.eng.now(), [&] {
    t.a->send_packet(make_pkt(t.a->ip(), t.b->ip(), 7, 2, 100));
    t.a->send_packet(make_pkt(t.a->ip(), t.b->ip(), 7, 2, 100));
  });
  f.eng.run();
  const auto new_drops = f.net.drops().blackhole - drops_before;
  EXPECT_TRUE(new_drops == 0 || new_drops == 2) << new_drops;
}

TEST(TwoHosts, FailStopLinkLosesInFlightThenExcluded) {
  Fixture f;
  auto t = build_two_hosts(f.net, gbps(10), us(1));
  int delivered = 0;
  t.b->set_deliver([&](Packet&) { ++delivered; });
  // Kill the b-side link; before detection the switch still transmits into
  // it and packets die, after detection sends are dropped as no_route.
  f.eng.at(0, [&] { f.net.fail_link(*t.b, 0); });
  f.eng.at(us(100), [&] {
    t.a->send_packet(make_pkt(t.a->ip(), t.b->ip(), 1, 2, 100));
  });
  f.eng.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(f.net.drops().link_down, 1u);  // lost in flight (pre-detection)

  f.eng.at(f.eng.now() + ms(100), [&] {  // well past detection
    t.a->send_packet(make_pkt(t.a->ip(), t.b->ip(), 1, 2, 100));
  });
  f.eng.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_GE(f.net.drops().no_route, 1u);

  // Repair: traffic flows again after detection of carrier-up.
  f.net.repair_link(*t.b, 0);
  f.eng.at(f.eng.now() + ms(100), [&] {
    t.a->send_packet(make_pkt(t.a->ip(), t.b->ip(), 1, 2, 100));
  });
  f.eng.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Clos, BuildsExpectedDeviceCounts) {
  Fixture f;
  ClosConfig cfg;
  cfg.compute_servers = 8;
  cfg.storage_servers = 8;
  cfg.servers_per_rack = 4;
  cfg.spines_per_pod = 2;
  cfg.core_switches = 2;
  Clos clos = build_clos(f.net, cfg);
  EXPECT_EQ(clos.compute.size(), 8u);
  EXPECT_EQ(clos.storage.size(), 8u);
  EXPECT_EQ(clos.compute_tors.size(), 4u);  // 2 racks x ToR pair
  EXPECT_EQ(clos.storage_tors.size(), 4u);
  EXPECT_EQ(clos.compute_spines.size(), 2u);
  EXPECT_EQ(clos.cores.size(), 2u);
}

TEST(Clos, AllPairsReachable) {
  Fixture f;
  ClosConfig cfg;
  cfg.compute_servers = 6;
  cfg.storage_servers = 6;
  cfg.servers_per_rack = 3;
  Clos clos = build_clos(f.net, cfg);
  int delivered = 0;
  for (auto* nic : clos.storage) {
    nic->set_deliver([&](Packet&) { ++delivered; });
  }
  for (auto* nic : clos.compute) {
    nic->set_deliver([&](Packet&) { ++delivered; });
  }
  f.eng.at(0, [&] {
    for (auto* src : clos.compute) {
      for (auto* dst : clos.storage) {
        src->send_packet(make_pkt(src->ip(), dst->ip(), 5, 6, 200));
        dst->send_packet(make_pkt(dst->ip(), src->ip(), 6, 5, 200));
      }
    }
  });
  f.eng.run();
  EXPECT_EQ(delivered, 6 * 6 * 2);
}

TEST(Clos, EcmpSpreadsFlowsAcrossCores) {
  Fixture f;
  ClosConfig cfg;
  cfg.compute_servers = 4;
  cfg.storage_servers = 4;
  cfg.servers_per_rack = 4;
  cfg.spines_per_pod = 2;
  cfg.core_switches = 4;
  Clos clos = build_clos(f.net, cfg);
  clos.storage[0]->set_deliver([](Packet&) {});
  f.eng.at(0, [&] {
    // Many distinct source ports = many flows = all cores should carry some.
    for (int sport = 1; sport <= 512; ++sport) {
      clos.compute[0]->send_packet(
          make_pkt(clos.compute[0]->ip(), clos.storage[0]->ip(),
                   static_cast<std::uint16_t>(sport), 443, 200));
    }
  });
  f.eng.run();
  int cores_used = 0;
  for (auto* core : clos.cores) cores_used += (core->forwarded() > 0);
  EXPECT_EQ(cores_used, 4);
}

TEST(Clos, SameFlowStaysOnSamePath) {
  Fixture f;
  Clos clos = build_clos(f.net, ClosConfig{});
  clos.storage[0]->set_deliver([](Packet&) {});
  f.eng.at(0, [&] {
    for (int i = 0; i < 50; ++i) {
      clos.compute[0]->send_packet(make_pkt(
          clos.compute[0]->ip(), clos.storage[0]->ip(), 777, 443, 200));
    }
  });
  f.eng.run();
  // Exactly one core must have seen the flow.
  int cores_used = 0;
  for (auto* core : clos.cores) cores_used += (core->forwarded() > 0);
  EXPECT_EQ(cores_used, 1);
}

TEST(Clos, UplinkFailoverAfterDetection) {
  Fixture f;
  Clos clos = build_clos(f.net, ClosConfig{});
  Nic* src = clos.compute[0];
  Nic* dst = clos.storage[0];
  int delivered = 0;
  dst->set_deliver([&](Packet&) { ++delivered; });

  // Find which uplink flow 777 uses, fail that ToR link, wait past
  // detection, and confirm the same flow now flows via the sibling ToR.
  f.eng.at(0, [&] {
    src->send_packet(make_pkt(src->ip(), dst->ip(), 777, 443, 200));
  });
  f.eng.run();
  ASSERT_EQ(delivered, 1);
  const std::uint64_t tx0 = src->port(0).stats().pkts_tx;
  const int used = tx0 > 0 ? 0 : 1;
  f.net.fail_link(*src, used);
  f.eng.at(f.eng.now() + ms(100), [&] {
    src->send_packet(make_pkt(src->ip(), dst->ip(), 777, 443, 200));
  });
  f.eng.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_GT(src->port(1 - used).stats().pkts_tx, 0u);
}

TEST(Clos, SpineFailStopReroutesAfterReconvergence) {
  Fixture f;
  ClosConfig cfg;
  cfg.spines_per_pod = 2;
  Clos clos = build_clos(f.net, cfg);
  Nic* src = clos.compute[0];
  Nic* dst = clos.storage[0];
  int delivered = 0;
  dst->set_deliver([&](Packet&) { ++delivered; });
  f.eng.at(0, [&] { f.net.fail_device_stop(*clos.compute_spines[0]); });
  // After detect (10ms) + reconverge (50ms), everything flows via spine 1.
  f.eng.at(ms(100), [&] {
    for (int sport = 1; sport <= 64; ++sport) {
      src->send_packet(make_pkt(src->ip(), dst->ip(),
                                static_cast<std::uint16_t>(sport), 443, 200));
    }
  });
  f.eng.run();
  EXPECT_EQ(delivered, 64);
  EXPECT_EQ(clos.compute_spines[0]->forwarded(), 0u);
}

TEST(Clos, SilentSpineDeathBlackholesSubsetUntilRepair) {
  Fixture f;
  ClosConfig cfg;
  cfg.spines_per_pod = 2;
  Clos clos = build_clos(f.net, cfg);
  Nic* src = clos.compute[0];
  Nic* dst = clos.storage[0];
  int delivered = 0;
  dst->set_deliver([&](Packet&) { ++delivered; });
  f.net.fail_device_silent(*clos.compute_spines[0]);
  f.eng.at(ms(100), [&] {
    for (int sport = 1; sport <= 256; ++sport) {
      src->send_packet(make_pkt(src->ip(), dst->ip(),
                                static_cast<std::uint16_t>(sport), 443, 200));
    }
  });
  f.eng.run();
  // Roughly half the flows hash through the dead spine and vanish; the
  // control plane never excludes it (carrier is still up).
  EXPECT_GT(delivered, 64);
  EXPECT_LT(delivered, 192);
  EXPECT_GT(f.net.drops().device_dead, 0u);
}

TEST(Clos, IntRecordsAppendedPerSwitchHop) {
  Fixture f;
  Clos clos = build_clos(f.net, ClosConfig{});
  Nic* src = clos.compute[0];
  Nic* dst = clos.storage[0];
  std::size_t hops = 0;
  dst->set_deliver([&](Packet& pkt) { hops = pkt.int_records.size(); });
  f.eng.at(0, [&] {
    Packet p = make_pkt(src->ip(), dst->ip(), 1, 2, 4096);
    p.request_int = true;
    src->send_packet(std::move(p));
  });
  f.eng.run();
  // ToR -> spine -> core -> spine -> ToR = 5 switch hops.
  EXPECT_EQ(hops, 5u);
}

TEST(Clos, BaseRttIsAFewMicroseconds) {
  Fixture f;
  Clos clos = build_clos(f.net, ClosConfig{});
  Nic* src = clos.compute[0];
  Nic* dst = clos.storage[0];
  TimeNs fwd = -1, rtt = -1;
  dst->set_deliver([&](Packet& pkt) {
    fwd = f.eng.now();
    dst->send_packet(make_pkt(dst->ip(), src->ip(), pkt.flow.dst_port,
                              pkt.flow.src_port, 4096));
  });
  src->set_deliver([&](Packet&) { rtt = f.eng.now(); });
  f.eng.at(0, [&] {
    src->send_packet(make_pkt(src->ip(), dst->ip(), 1, 2, 4096));
  });
  f.eng.run();
  ASSERT_GT(fwd, 0);
  ASSERT_GT(rtt, fwd);
  // Base fabric RTT for 4KB jumbo frames should be in single-digit us,
  // matching the paper's 8.3us base RTT once stack overheads are added.
  EXPECT_LT(rtt, us(12));
  EXPECT_GT(rtt, us(4));
}

// --- route table ----------------------------------------------------------

// Reference routing: the nested-hash-map BFS the flat route table replaced,
// kept as an oracle. Every device (NICs too) toward every host: the
// detected-up ports one hop closer to the host, in ascending port order.
// Packets never transit another host.
std::map<std::pair<DeviceId, IpAddr>, std::vector<int>> reference_routes(
    const Network& net) {
  std::map<std::pair<DeviceId, IpAddr>, std::vector<int>> out;
  for (const auto& host : net.devices()) {
    if (!host->is_host()) continue;
    std::unordered_map<DeviceId, int> dist;
    dist[host->id()] = 0;
    std::queue<const Device*> frontier;
    frontier.push(host.get());
    while (!frontier.empty()) {
      const Device* d = frontier.front();
      frontier.pop();
      const int dd = dist[d->id()];
      if (d->is_host() && d != host.get()) continue;
      for (int i = 0; i < d->num_ports(); ++i) {
        const Port& p = d->port(i);
        if (!p.detected_up() || dist.contains(p.peer()->id())) continue;
        dist[p.peer()->id()] = dd + 1;
        frontier.push(p.peer());
      }
    }
    for (const auto& dev : net.devices()) {
      if (dev == host) continue;
      auto it = dist.find(dev->id());
      if (it == dist.end()) continue;
      std::vector<int> hops;
      for (int i = 0; i < dev->num_ports(); ++i) {
        const Port& p = dev->port(i);
        if (!p.detected_up()) continue;
        auto pit = dist.find(p.peer()->id());
        if (pit != dist.end() && pit->second == it->second - 1 &&
            (!p.peer()->is_host() || p.peer() == host.get())) {
          hops.push_back(i);
        }
      }
      if (!hops.empty()) out[{dev->id(), host->id()}] = std::move(hops);
    }
  }
  return out;
}

// Every (switch, host) cell equals the reference, candidate order included;
// hosts have no rows. Returns the number of cells compared.
std::size_t expect_routes_match_reference(const Network& net) {
  const auto ref = reference_routes(net);
  std::size_t cells = 0;
  std::size_t mismatches = 0;
  std::string first;
  for (const auto& dev : net.devices()) {
    for (const auto& host : net.devices()) {
      if (!host->is_host()) continue;
      const std::span<const int> got = net.routes(dev->id(), host->id());
      if (dev->is_host()) {
        if (!got.empty()) ++mismatches;
        continue;
      }
      ++cells;
      auto it = ref.find({dev->id(), host->id()});
      const std::vector<int> want =
          it == ref.end() ? std::vector<int>{} : it->second;
      if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
        if (mismatches++ == 0) first = dev->name() + " -> " + host->name();
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first;
  return cells;
}

ClosConfig clos_shape(int compute, int storage, int per_rack, int spines,
                      int cores) {
  ClosConfig cfg;
  cfg.compute_servers = compute;
  cfg.storage_servers = storage;
  cfg.servers_per_rack = per_rack;
  cfg.spines_per_pod = spines;
  cfg.core_switches = cores;
  return cfg;
}

TEST(RouteTable, MatchesReferenceBfsAcrossShapes) {
  const ClosConfig shapes[] = {
      ClosConfig{},
      clos_shape(6, 6, 3, 2, 2),
      clos_shape(10, 7, 4, 3, 5),  // partial racks, odd fan-outs
      clos_shape(16, 24, 8, 16, 16),  // the widest ECMP a switch holds
  };
  for (const ClosConfig& cfg : shapes) {
    Fixture f;
    const Clos clos = build_clos(f.net, cfg);
    const std::size_t switches = clos.compute_tors.size() +
                                 clos.storage_tors.size() +
                                 clos.compute_spines.size() +
                                 clos.storage_spines.size() + clos.cores.size();
    EXPECT_EQ(expect_routes_match_reference(f.net),
              switches * (clos.compute.size() + clos.storage.size()));
  }
}

TEST(RouteTable, MatchesReferenceAfterFailuresAndRepair) {
  Fixture f;
  const Clos clos = build_clos(f.net, clos_shape(8, 8, 4, 3, 3));
  // A ToR uplink, a whole storage spine and one server's uplink go down.
  f.net.fail_link(*clos.compute_tors[1], clos.config.servers_per_rack + 2);
  f.net.fail_device_stop(*clos.storage_spines[0]);
  f.net.fail_link(*clos.storage[5], 0);
  f.eng.run();  // detection + reconvergence
  expect_routes_match_reference(f.net);
  EXPECT_EQ(f.net.routes(clos.storage_tors[0]->id(), clos.compute[0]->ip())
                .size(),
            2u);  // storage spines 1 and 2 remain
  f.net.repair_device(*clos.storage_spines[0]);
  f.eng.run();
  expect_routes_match_reference(f.net);
  EXPECT_EQ(f.net.routes(clos.storage_tors[0]->id(), clos.compute[0]->ip())
                .size(),
            3u);
}

// Failures can widen a switch's shortest next hops past what it holds: in a
// 10-rack pod with spine0's rack-0 link and ToR1 down, spine0 reaches rack 0
// through every other ToR and both cores (20 ports). Reconvergence keeps the
// wide cell, and the switch forwards over its first kMaxEcmpWidth live ports.
TEST(RouteTable, ReconvergenceKeepsDetoursWiderThanASwitchHolds) {
  Fixture f;
  const Clos clos = build_clos(f.net, clos_shape(80, 8, 8, 2, 2));
  Switch* spine0 = clos.compute_spines[0];
  Nic* dst = clos.compute[0];
  f.net.fail_link(*spine0, 0);
  f.net.fail_device_stop(*clos.compute_tors[1]);
  EXPECT_NO_THROW(f.eng.run());  // detection + reconvergence
  expect_routes_match_reference(f.net);
  ASSERT_EQ(f.net.routes(spine0->id(), dst->ip()).size(), 20u);

  int delivered = 0;
  dst->set_deliver([&](Packet&) { ++delivered; });
  const std::uint64_t no_route = f.net.drops().no_route;
  f.eng.at(f.eng.now(), [&] {
    for (std::uint16_t sport = 1; sport <= 64; ++sport) {
      PacketPtr p = f.net.make_packet();
      *p = make_pkt(clos.storage[0]->ip(), dst->ip(), sport, 2, 200);
      clos.cores[0]->send(0, std::move(p));  // core0 port 0 is spine0's link
    }
  });
  f.eng.run();
  EXPECT_EQ(delivered, 64);
  EXPECT_EQ(f.net.drops().no_route, no_route);
}

TEST(RouteTable, MatchesReferenceOnTwoShards) {
  sim::ShardedEngine se(2);
  Network net(se, NetworkParams{}, 12345);
  ClosConfig cfg = clos_shape(8, 8, 4, 2, 3);
  cfg.shards = 2;
  const Clos clos = build_clos(net, cfg);
  se.set_lookahead(net.min_cross_shard_prop());
  expect_routes_match_reference(net);
  // Flipped at a barrier, rebuilt by the reconvergence at a later one.
  net.fail_link(*clos.cores[1], 0);
  net.fail_device_stop(*clos.compute_tors[2]);
  se.run();
  expect_routes_match_reference(net);
  EXPECT_TRUE(
      net.routes(clos.compute_tors[2]->id(), clos.storage[0]->ip()).empty());
}

TEST(RouteTable, UnreachableHostIsEmptyAndDropsOnceAsNoRoute) {
  Fixture f;
  const Clos clos = build_clos(f.net, ClosConfig{});
  Nic* src = clos.compute[0];
  Nic* dst = clos.storage[3];
  f.net.fail_device_stop(*dst);
  f.eng.run();  // both uplinks detected down, routes recomputed
  for (const auto& dev : f.net.devices()) {
    EXPECT_TRUE(f.net.routes(dev->id(), dst->ip()).empty()) << dev->name();
  }
  // An address no host holds has no cell at all.
  const IpAddr nowhere = static_cast<IpAddr>(f.net.devices().size() + 100);
  EXPECT_TRUE(f.net.routes(clos.cores[0]->id(), nowhere).empty());

  const std::uint64_t before = f.net.drops().no_route;
  f.eng.at(f.eng.now(), [&] {
    src->send_packet(make_pkt(src->ip(), dst->ip(), 1, 2, 200));
  });
  f.eng.run();
  EXPECT_EQ(f.net.drops().no_route, before + 1);  // at the first ToR
  f.eng.at(f.eng.now(), [&] {
    src->send_packet(make_pkt(src->ip(), nowhere, 1, 2, 200));
  });
  f.eng.run();
  EXPECT_EQ(f.net.drops().no_route, before + 2);
}

TEST(RouteTable, RefusesEcmpWiderThanASwitchHolds) {
  Fixture f;
  EXPECT_THROW(build_clos(f.net, clos_shape(8, 8, 8, 2, kMaxEcmpWidth + 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace repro::net
