#include "net/switch.h"

#include "obs/registry.h"

namespace repro::net {

void Switch::register_metrics(obs::Registry& reg) const {
  const obs::Labels node = obs::label("node", name());
  reg.expose_counter("switch.forwarded", node, &forwarded_);
  reg.expose_counter("switch.ecmp_rehashes", node, &ecmp_rehashes_);
  reg.expose_gauge(
      "switch.queue_bytes", node,
      [this]() -> std::int64_t {
        std::int64_t total = 0;
        for (int i = 0; i < num_ports(); ++i) {
          total += static_cast<std::int64_t>(port(i).queue_bytes());
        }
        return total;
      },
      /*sampled=*/true);
  reg.expose_gauge(
      "switch.queue_bytes_peak", node,
      [this]() -> std::int64_t {
        std::int64_t peak = 0;
        for (int i = 0; i < num_ports(); ++i) {
          const std::int64_t p = static_cast<std::int64_t>(
              port(i).stats().queue_bytes_peak);
          if (p > peak) peak = p;
        }
        return peak;
      },
      /*sampled=*/false);
  reg.expose_gauge(
      "switch.drops", node,
      [this]() -> std::int64_t {
        std::int64_t total = 0;
        for (int i = 0; i < num_ports(); ++i) {
          const PortStats& s = port(i).stats();
          total += static_cast<std::int64_t>(s.drops_queue_full +
                                             s.drops_link_down);
        }
        return total;
      },
      /*sampled=*/false);
  reg.expose_gauge(
      "switch.enqueues", node,
      [this]() -> std::int64_t {
        std::int64_t total = 0;
        for (int i = 0; i < num_ports(); ++i) {
          total += static_cast<std::int64_t>(port(i).stats().enqueues);
        }
        return total;
      },
      /*sampled=*/false);
}

void Switch::receive(PacketPtr pkt, int in_port) {
  (void)in_port;
  const std::span<const int> candidates =
      network().routes(id(), pkt->flow.dst_ip);
  // Fast local exclusion: between carrier detection and routing
  // reconvergence, skip ports we already know are down. A detour set that
  // failures widened past kMaxEcmpWidth keeps its first live ports.
  int live[kMaxEcmpWidth];
  int n_live = 0;
  for (int p : candidates) {
    if (port(p).detected_up() && n_live < kMaxEcmpWidth) live[n_live++] = p;
  }
  if (n_live == 0) {
    ++network().drops().no_route;
    return;
  }
  const std::uint64_t h = flow_hash(pkt->flow, salt_);
  // Count flows that the live-port filter moved off their nominal hash
  // choice — observation only, the selection below is unchanged.
  if (n_live != static_cast<int>(candidates.size()) &&
      !port(candidates[h % candidates.size()]).detected_up()) {
    ++ecmp_rehashes_;
  }
  const int egress = live[h % static_cast<std::uint64_t>(n_live)];

  if (pkt->request_int && !pkt->int_records.full()) {
    Port& p = port(egress);
    pkt->int_records.push_back(IntRecord{
        .node = id(),
        .timestamp = network().engine().now(),
        .queue_bytes = p.queue_bytes(),
        .link_rate = p.rate(),
        .tx_bytes = p.tx_bytes_total(),
    });
  }
  ++forwarded_;
  send(egress, std::move(pkt));
}

}  // namespace repro::net
