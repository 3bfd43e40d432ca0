#include "net/network.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace repro::net {

std::uint64_t flow_hash(const FlowKey& flow, std::uint64_t salt) {
  std::uint64_t h = salt ^ 0x9E3779B97F4A7C15ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
  };
  mix(flow.src_ip);
  mix(flow.dst_ip);
  mix(static_cast<std::uint64_t>(flow.src_port) << 16 | flow.dst_port);
  mix(static_cast<std::uint64_t>(flow.proto));
  return h;
}

Port::Port(Port&& o) noexcept
    : owner_(o.owner_),
      index_(o.index_),
      peer_(o.peer_),
      peer_port_(o.peer_port_),
      rate_(o.rate_),
      prop_delay_(o.prop_delay_),
      link_(std::move(o.link_)),
      detected_up_(o.detected_up_),
      cap_bytes_(o.cap_bytes_),
      transmitting_(o.transmitting_),
      stats_(o.stats_) {
  for (int c = 0; c < kNumQueues; ++c) {
    q_head_[c] = std::exchange(o.q_head_[c], nullptr);
    q_tail_[c] = std::exchange(o.q_tail_[c], nullptr);
    q_bytes_[c] = std::exchange(o.q_bytes_[c], 0);
  }
}

void Port::push(int cls, Packet* pkt) {
  pkt->next_ = nullptr;
  if (q_tail_[cls] != nullptr) {
    q_tail_[cls]->next_ = pkt;
  } else {
    q_head_[cls] = pkt;
  }
  q_tail_[cls] = pkt;
}

PacketPtr Port::pop(int cls) {
  Packet* pkt = q_head_[cls];
  q_head_[cls] = pkt->next_;
  if (q_head_[cls] == nullptr) q_tail_[cls] = nullptr;
  pkt->next_ = nullptr;
  return PacketPtr(pkt);
}

void Port::drain() {
  for (int c = 0; c < kNumQueues; ++c) {
    while (q_head_[c] != nullptr) pop(c);  // PacketPtr recycles on drop
    q_bytes_[c] = 0;
  }
}

Device::Device(Network& net, DeviceId id, std::string name, int num_ports,
               bool is_host)
    : net_(&net),
      id_(id),
      name_(std::move(name)),
      is_host_(is_host),
      shard_(sim::current_shard()) {
  ports_.resize(static_cast<std::size_t>(num_ports));
  for (int i = 0; i < num_ports; ++i) {
    ports_[static_cast<std::size_t>(i)].owner_ = this;
    ports_[static_cast<std::size_t>(i)].index_ = i;
  }
}

void Device::send(int port_idx, PacketPtr pkt) {
  Port& p = port(port_idx);
  if (!p.connected()) {
    ++net_->drops().no_route;
    return;
  }
  const int cls = pkt->priority == 0 ? 0 : 1;
  if (p.q_bytes_[cls] + pkt->size_bytes > p.cap_bytes_) {
    ++p.stats_.drops_queue_full;
    ++net_->drops().queue_full;
    return;
  }
  p.q_bytes_[cls] += pkt->size_bytes;
  ++p.stats_.enqueues;
  const std::uint64_t depth = p.q_bytes_[0] + p.q_bytes_[1];
  if (depth > p.stats_.queue_bytes_peak) p.stats_.queue_bytes_peak = depth;
  p.push(cls, pkt.release());
  start_tx(port_idx);
}

void Device::start_tx(int port_idx) {
  Port& p = port(port_idx);
  if (p.transmitting_) return;
  int cls = -1;
  for (int c = 0; c < Port::kNumQueues; ++c) {
    if (p.q_head_[c] != nullptr) {
      cls = c;
      break;
    }
  }
  if (cls < 0) return;
  PacketPtr pkt = p.pop(cls);
  p.q_bytes_[cls] -= pkt->size_bytes;
  p.transmitting_ = true;

  const TimeNs ser = serialization_delay(pkt->size_bytes, p.rate_);
  net_->engine().after(ser, [this, port_idx, pkt = std::move(pkt)]() mutable {
    Port& port_ref = port(port_idx);
    port_ref.transmitting_ = false;
    ++port_ref.stats_.pkts_tx;
    port_ref.stats_.bytes_tx += pkt->size_bytes;
    // Propagate; the link may die while the packet is in flight.
    auto* link = port_ref.link_.get();
    Device* peer = port_ref.peer_;
    const int peer_port = port_ref.peer_port_;
    if (peer->shard_ != shard_) {
      // Cross-shard hop. The pooled shell stays home (pools are strictly
      // shard-affine); the wire-visible contents — flow key, INT trail,
      // payload reference, span id — move through the epoch mailbox and
      // are re-shelled from the destination shard's pool on arrival. The
      // propagation delay is >= the lookahead by construction, which is
      // what makes the conservative epoch schedule correct.
      net_->sharded()->post(
          peer->shard_, net_->engine().now() + port_ref.prop_delay_,
          [this, link, peer, peer_port, val = std::move(*pkt)]() mutable {
            if (link == nullptr || !link->alive) {
              ++net_->drops().link_down;
              return;
            }
            PacketPtr p = net_->make_packet();
            *p = std::move(val);
            peer->handle_arrival(std::move(p), peer_port);
          });
      pkt.reset();
    } else {
      net_->engine().after(
          port_ref.prop_delay_,
          [this, link, peer, peer_port, pkt = std::move(pkt)]() mutable {
            if (link == nullptr || !link->alive) {
              ++net_->drops().link_down;
              return;
            }
            peer->handle_arrival(std::move(pkt), peer_port);
          });
    }
    start_tx(port_idx);
  });
}

void Device::handle_arrival(PacketPtr pkt, int in_port) {
  if (faults_.silent_dead) {
    ++net_->drops().device_dead;
    return;
  }
  if (faults_.loss_rate > 0.0 && net_->rng().bernoulli(faults_.loss_rate)) {
    ++net_->drops().random_loss;
    return;
  }
  if (faults_.blackhole_fraction > 0.0) {
    const std::uint64_t h = flow_hash(pkt->flow, faults_.blackhole_salt);
    if (static_cast<double>(h % 1024) <
        faults_.blackhole_fraction * 1024.0) {
      ++net_->drops().blackhole;
      return;
    }
  }
  if (faults_.corrupt_rate > 0.0 && !pkt->wire_corrupted &&
      net_->rng().bernoulli(faults_.corrupt_rate)) {
    pkt->wire_corrupted = true;  // dropped by the receiving NIC's FCS check
    ++net_->wire_faults().corrupted;
  }
  if (faults_.dup_rate > 0.0 && net_->rng().bernoulli(faults_.dup_rate)) {
    PacketPtr copy = net_->make_packet();
    copy->flow = pkt->flow;
    copy->size_bytes = pkt->size_bytes;
    copy->priority = pkt->priority;
    copy->request_int = pkt->request_int;
    copy->int_records = pkt->int_records;
    copy->id = pkt->id;
    copy->sent_at = pkt->sent_at;
    copy->span = pkt->span;
    copy->wire_corrupted = pkt->wire_corrupted;
    if (pkt->app != nullptr) {
      payload_ref(pkt->app);
      copy->app = pkt->app;
    }
    ++net_->wire_faults().duplicated;
    receive(std::move(copy), in_port);
  }
  if (faults_.reorder_rate > 0.0 && faults_.reorder_delay > 0 &&
      net_->rng().bernoulli(faults_.reorder_rate)) {
    ++net_->wire_faults().reordered;
    net_->engine().after(faults_.reorder_delay,
                         [this, in_port, pkt = std::move(pkt)]() mutable {
                           receive(std::move(pkt), in_port);
                         });
    return;
  }
  receive(std::move(pkt), in_port);
}

Network::Network(sim::Engine& engine, NetworkParams params,
                 std::uint64_t seed)
    : engine_(&engine), params_(params) {
  shards_.push_back(std::make_unique<ShardState>(Rng(seed), 0));
}

Network::Network(sim::ShardedEngine& se, NetworkParams params,
                 std::uint64_t seed)
    : engine_(&se.shard(0)), sharded_(&se), params_(params) {
  const int num_shards = se.shards();
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    // Shard 0 reproduces the legacy stream exactly; the rest are forked
    // with a distinctive stream id so no two shards share a sequence.
    const Rng r = s == 0 ? Rng(seed) : Rng(seed).fork(0xFAB5'0000ull + s);
    shards_.push_back(std::make_unique<ShardState>(r, s));
  }
}

Network::~Network() {
  // Devices (and their queued packets) go first; then each pool deletes
  // itself once any packets still captured in engine closures come home.
  devices_.clear();
  for (auto& st : shards_) st->pool->retire();
}

std::size_t Network::packets_outstanding() const {
  std::size_t total = 0;
  for (const auto& st : shards_) total += st->pool->outstanding();
  return total;
}

Network::DropStats Network::drops_total() const {
  DropStats total;
  for (const auto& st : shards_) {
    total.queue_full += st->drops.queue_full;
    total.link_down += st->drops.link_down;
    total.device_dead += st->drops.device_dead;
    total.blackhole += st->drops.blackhole;
    total.random_loss += st->drops.random_loss;
    total.no_route += st->drops.no_route;
    total.corrupt_fcs += st->drops.corrupt_fcs;
  }
  return total;
}

Network::WireFaultStats Network::wire_faults_total() const {
  WireFaultStats total;
  for (const auto& st : shards_) {
    total.corrupted += st->wire_faults.corrupted;
    total.duplicated += st->wire_faults.duplicated;
    total.reordered += st->wire_faults.reordered;
  }
  return total;
}

void Network::link(Device& a, int pa, Device& b, int pb, BitsPerSec rate,
                   TimeNs prop_delay, std::uint64_t queue_capacity) {
  if (queue_capacity == 0) queue_capacity = params_.default_queue_capacity;
  auto state = std::make_shared<LinkState>();
  Port& ap = a.port(pa);
  Port& bp = b.port(pb);
  ap.peer_ = &b;
  ap.peer_port_ = pb;
  ap.rate_ = rate;
  ap.prop_delay_ = prop_delay;
  ap.link_ = state;
  ap.detected_up_ = true;
  ap.cap_bytes_ = queue_capacity;
  bp.peer_ = &a;
  bp.peer_port_ = pa;
  bp.rate_ = rate;
  bp.prop_delay_ = prop_delay;
  bp.link_ = state;
  bp.detected_up_ = true;
  bp.cap_bytes_ = queue_capacity;
  if (a.shard_ != b.shard_ &&
      (min_cross_shard_prop_ < 0 || prop_delay < min_cross_shard_prop_)) {
    min_cross_shard_prop_ = prop_delay;
  }
}

void Network::set_link_alive(Device& dev, int port, bool alive) {
  if (sharded_ != nullptr && sharded_->shards() > 1) {
    // Link state is shared fabric state (both endpoints read `alive` on
    // their own shards); mutate it only with every shard quiescent. The
    // flip lands at the posting epoch's barrier — within one lookahead of
    // the legacy instant — and detection/reconvergence keep their exact
    // configured delays from there.
    sharded_->post_global(
        [this, d = &dev, port, alive] { set_link_alive_now(*d, port, alive); });
    return;
  }
  set_link_alive_now(dev, port, alive);
}

void Network::set_link_alive_now(Device& dev, int port, bool alive) {
  Port& p = dev.port(port);
  if (!p.connected() || p.link_->alive == alive) return;
  p.link_->alive = alive;
  Device* peer = p.peer_;
  const int peer_port = p.peer_port_;
  // Both ends detect the carrier change after the detection delay.
  auto detect = [this, d = &dev, port, peer, peer_port, alive] {
    d->port(port).detected_up_ = alive;
    peer->port(peer_port).detected_up_ = alive;
    // The carrier handlers run under their device's shard context so any
    // timers they arm (e.g. SOLAR path probing) land on the home engine.
    {
      const sim::ShardScope scope(d->shard_);
      if (alive) {
        d->on_link_up(port);
      } else {
        d->on_link_down(port);
      }
    }
    {
      const sim::ShardScope scope(peer->shard_);
      if (alive) {
        peer->on_link_up(peer_port);
      } else {
        peer->on_link_down(peer_port);
      }
    }
    schedule_reconvergence();
  };
  if (sharded_ != nullptr && sharded_->shards() > 1) {
    sharded_->post_global_at(sharded_->now() + params_.link_detect_delay,
                             std::move(detect));
  } else {
    engine_->after(params_.link_detect_delay, std::move(detect));
  }
}

void Network::schedule_reconvergence() {
  if (reconvergence_pending_) return;
  reconvergence_pending_ = true;
  auto reconverge = [this] {
    reconvergence_pending_ = false;
    build_routes();
  };
  if (sharded_ != nullptr && sharded_->shards() > 1) {
    sharded_->post_global_at(sharded_->now() + params_.reconverge_delay,
                             std::move(reconverge));
  } else {
    engine_->after(params_.reconverge_delay, std::move(reconverge));
  }
}

void Network::fail_link(Device& dev, int port) {
  set_link_alive(dev, port, false);
}

void Network::repair_link(Device& dev, int port) {
  set_link_alive(dev, port, true);
}

void Network::fail_device_stop(Device& dev) {
  for (int i = 0; i < dev.num_ports(); ++i) {
    if (dev.port(i).connected()) set_link_alive(dev, i, false);
  }
}

void Network::fail_device_silent(Device& dev) {
  dev.faults_.silent_dead = true;
}

void Network::set_silent(Device& dev, bool dead) {
  dev.faults_.silent_dead = dead;
}

void Network::repair_device(Device& dev) {
  dev.faults_.silent_dead = false;
  dev.faults_.loss_rate = 0.0;
  dev.faults_.blackhole_fraction = 0.0;
  dev.faults_.corrupt_rate = 0.0;
  dev.faults_.dup_rate = 0.0;
  dev.faults_.reorder_rate = 0.0;
  for (int i = 0; i < dev.num_ports(); ++i) {
    if (dev.port(i).connected()) set_link_alive(dev, i, true);
  }
}

void Network::set_loss_rate(Device& dev, double p) {
  dev.faults_.loss_rate = p;
}

void Network::set_blackhole(Device& dev, double fraction) {
  dev.faults_.blackhole_fraction = fraction;
  // Salt from the *device's* home-shard stream: the injector applies this
  // on the target's shard, so the draw is deterministic under sharding and
  // identical to the legacy single-stream draw when shards == 1.
  dev.faults_.blackhole_salt = rng().next();
}

void Network::set_corrupt_rate(Device& dev, double p) {
  dev.faults_.corrupt_rate = p;
}

void Network::set_dup_rate(Device& dev, double p) {
  dev.faults_.dup_rate = p;
}

void Network::set_reorder(Device& dev, double p, TimeNs delay) {
  dev.faults_.reorder_rate = p;
  dev.faults_.reorder_delay = delay;
}

void Network::compute_routes() {
  const std::size_t widest = build_routes();
  if (widest > static_cast<std::size_t>(kMaxEcmpWidth)) {
    throw std::invalid_argument(
        "compute_routes: a switch has " + std::to_string(widest) +
        " ECMP candidates toward one host, at most " +
        std::to_string(kMaxEcmpWidth) + " are supported");
  }
}

std::size_t Network::build_routes() {
  // Ids are 1..N in creation order, so devices_[id - 1] has id `id`.
  const std::size_t ids = devices_.size() + 1;
  row_of_.assign(ids, -1);
  col_of_.assign(ids, -1);
  std::vector<const Device*> switches;
  std::vector<const Device*> hosts;
  for (const auto& d : devices_) {
    std::vector<const Device*>& group = d->is_host() ? hosts : switches;
    (d->is_host() ? col_of_ : row_of_)[d->id()] =
        static_cast<int>(group.size());
    group.push_back(d.get());
  }
  num_cols_ = hosts.size();
  cells_.assign(switches.size() * num_cols_, Cell{});
  route_ports_.clear();
  std::size_t widest = 0;

  // BFS from every host over the control-plane-visible (detected-up) graph.
  std::vector<int> dist(ids);
  std::vector<const Device*> frontier;
  frontier.reserve(ids);
  for (std::size_t col = 0; col < hosts.size(); ++col) {
    const Device* host = hosts[col];
    std::fill(dist.begin(), dist.end(), -1);
    dist[host->id()] = 0;
    frontier.assign(1, host);
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const Device* d = frontier[head];
      // Packets never transit through another host.
      if (d->is_host() && d != host) continue;
      for (int i = 0; i < d->num_ports(); ++i) {
        const Port& p = d->port(i);
        if (!p.detected_up() || dist[p.peer()->id()] >= 0) continue;
        dist[p.peer()->id()] = dist[d->id()] + 1;
        frontier.push_back(p.peer());
      }
    }
    for (std::size_t row = 0; row < switches.size(); ++row) {
      const Device* sw = switches[row];
      const int ds = dist[sw->id()];
      if (ds < 0) continue;
      const std::size_t begin = route_ports_.size();
      for (int i = 0; i < sw->num_ports(); ++i) {
        const Port& p = sw->port(i);
        if (!p.detected_up()) continue;
        const Device* n = p.peer();
        if (dist[n->id()] == ds - 1 && (!n->is_host() || n == host)) {
          route_ports_.push_back(i);
        }
      }
      const std::size_t count = route_ports_.size() - begin;
      widest = std::max(widest, count);
      cells_[row * num_cols_ + col] = Cell{static_cast<std::uint32_t>(begin),
                                           static_cast<std::uint32_t>(count)};
    }
  }
  return widest;
}

}  // namespace repro::net
