// The fabric: devices, ports, links, failures and routing.
//
// `Network` owns every device and all shared link state. Devices exchange
// packets through `Port`s: each port has a strict-priority pair of
// byte-limited egress queues (shallow buffers, per §3.1 the FN deliberately
// uses shallow-buffer switches), a serialization stage at link rate, and a
// propagation stage. Packets are pooled (`Network::make_packet`) and move
// through the fabric as `PacketPtr`; egress queues are intrusive lists
// threaded through the packets themselves, so the forwarding path performs
// no allocation. Failure semantics:
//
//  * fail-stop (link/port down, device power-off): carrier loss is detected
//    by both ends after `link_detect_delay`; ECMP selection then excludes
//    the port, and a routing recomputation runs after `reconverge_delay`.
//    Packets transmitted into a dead link during the detection window are
//    lost — the realistic sub-second blackhole.
//  * silent failures (hung switch, post-reboot unprogrammed FIB, partial
//    blackhole on a subset of flows, random loss): carrier stays up, the
//    control plane sees nothing, and only endpoint action (SOLAR's
//    multi-path timeouts) or manual ops repair ends the outage. These are
//    the incidents behind Fig. 8 and Table 2.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/packet.h"
#include "sim/engine.h"
#include "sim/shard_context.h"
#include "sim/sharded.h"

namespace repro::obs {
class Obs;
}

namespace repro::net {

class Device;
class Network;

/// ECMP candidates a switch can hold toward one destination (the size of
/// `Switch::receive`'s live-port set). `Network::compute_routes` refuses a
/// fabric that needs more; a wider detour set that failures open up is
/// narrowed to its first kMaxEcmpWidth live ports.
inline constexpr int kMaxEcmpWidth = 16;

struct LinkState {
  bool alive = true;
};

struct PortStats {
  std::uint64_t pkts_tx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t enqueues = 0;
  std::uint64_t queue_bytes_peak = 0;  ///< high-water mark across classes
  std::uint64_t drops_queue_full = 0;
  std::uint64_t drops_link_down = 0;
};

class Port {
 public:
  static constexpr int kNumQueues = 2;  // 0 = high priority, 1 = best effort

  Port() = default;
  ~Port() { drain(); }
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;
  Port(Port&& o) noexcept;

  bool connected() const { return peer_ != nullptr; }
  /// Carrier as currently *known* at this end (detection lags reality).
  bool detected_up() const { return connected() && detected_up_; }
  Device* peer() const { return peer_; }
  int peer_port() const { return peer_port_; }
  BitsPerSec rate() const { return rate_; }
  std::uint64_t queue_bytes() const { return q_bytes_[0] + q_bytes_[1]; }
  std::uint64_t tx_bytes_total() const { return stats_.bytes_tx; }
  const PortStats& stats() const { return stats_; }

 private:
  friend class Device;
  friend class Network;

  void push(int cls, Packet* pkt);
  PacketPtr pop(int cls);
  void drain();

  Device* owner_ = nullptr;
  int index_ = -1;
  Device* peer_ = nullptr;
  int peer_port_ = -1;
  BitsPerSec rate_ = 0;
  TimeNs prop_delay_ = 0;
  std::shared_ptr<LinkState> link_;
  bool detected_up_ = false;
  std::uint64_t cap_bytes_ = 0;
  // Intrusive FIFO per priority class, linked through Packet::next_.
  Packet* q_head_[kNumQueues] = {nullptr, nullptr};
  Packet* q_tail_[kNumQueues] = {nullptr, nullptr};
  std::uint64_t q_bytes_[kNumQueues] = {0, 0};
  bool transmitting_ = false;
  PortStats stats_;
};

/// Per-device fault knobs (set via Network's failure API).
struct DeviceFaults {
  bool silent_dead = false;     ///< forwards nothing, carrier stays up
  double loss_rate = 0.0;       ///< iid drop probability on receive
  double blackhole_fraction = 0.0;  ///< fraction of flows silently dropped
  std::uint64_t blackhole_salt = 0;
  // Wire-level misbehaviour (chaos): applied to arrivals at this device.
  double corrupt_rate = 0.0;    ///< iid bit-error probability (FCS-caught)
  double dup_rate = 0.0;        ///< iid duplicate-delivery probability
  double reorder_rate = 0.0;    ///< iid probability of delaying a packet
  TimeNs reorder_delay = 0;     ///< extra delivery delay for reordered pkts
};

class Device {
 public:
  Device(Network& net, DeviceId id, std::string name, int num_ports,
         bool is_host);
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  DeviceId id() const { return id_; }
  const std::string& name() const { return name_; }
  bool is_host() const { return is_host_; }
  /// Home shard (0 in single-shard networks). Fixed at construction: a
  /// device's events always execute on its home shard's engine.
  int shard() const { return shard_; }
  int num_ports() const { return static_cast<int>(ports_.size()); }
  Port& port(int i) { return ports_[static_cast<std::size_t>(i)]; }
  const Port& port(int i) const { return ports_[static_cast<std::size_t>(i)]; }

  /// Enqueues `pkt` on `port`'s egress. Drops (with accounting) if the
  /// queue is full or the port was never connected.
  void send(int port, PacketPtr pkt);

  Network& network() { return *net_; }
  const DeviceFaults& faults() const { return faults_; }

 protected:
  /// Delivered packets after fault filtering. `in_port` is the ingress.
  virtual void receive(PacketPtr pkt, int in_port) = 0;
  /// Carrier change notifications (fired at *detection* time).
  virtual void on_link_down(int port) { (void)port; }
  virtual void on_link_up(int port) { (void)port; }

 private:
  friend class Network;

  void start_tx(int port);
  void handle_arrival(PacketPtr pkt, int in_port);

  Network* net_;
  DeviceId id_;
  std::string name_;
  bool is_host_;
  int shard_;
  std::vector<Port> ports_;
  DeviceFaults faults_;
};

struct NetworkParams {
  /// Time for an endpoint/switch to notice carrier loss on a fail-stop.
  TimeNs link_detect_delay = ms(10);
  /// Additional time for routing to recompute after a detection.
  TimeNs reconverge_delay = ms(50);
  /// Default egress queue capacity per priority class (shallow buffer).
  std::uint64_t default_queue_capacity = 384 * 1024;
};

class Network {
 public:
  struct DropStats {
    std::uint64_t queue_full = 0;
    std::uint64_t link_down = 0;
    std::uint64_t device_dead = 0;
    std::uint64_t blackhole = 0;
    std::uint64_t random_loss = 0;
    std::uint64_t no_route = 0;
    std::uint64_t corrupt_fcs = 0;  ///< corrupted packets dropped by NIC FCS
    std::uint64_t total() const {
      return queue_full + link_down + device_dead + blackhole + random_loss +
             no_route + corrupt_fcs;
    }
  };

  /// Wire-fault event counters (chaos corrupt/dup/reorder injection).
  struct WireFaultStats {
    std::uint64_t corrupted = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
  };

  Network(sim::Engine& engine, NetworkParams params, std::uint64_t seed);
  /// Sharded fabric: one ShardState (rng, packet pool, drop counters,
  /// packet-id space) per shard of `se`. Shard 0's streams are seeded
  /// exactly like the single-engine constructor, so a 1-shard sharded
  /// network is bit-identical to a legacy one.
  Network(sim::ShardedEngine& se, NetworkParams params, std::uint64_t seed);
  ~Network();

  /// Creates and owns a device. T must derive from Device and take
  /// (Network&, DeviceId, forwarded args...) in its constructor.
  template <typename T, typename... Args>
  T* add_device(Args&&... args) {
    auto dev = std::make_unique<T>(*this, next_device_id_++,
                                   std::forward<Args>(args)...);
    T* raw = dev.get();
    devices_.push_back(std::move(dev));
    return raw;
  }

  /// Draws a blank packet from the calling shard's pool. Pools are
  /// strictly shard-affine: a packet shell never crosses shards (only its
  /// contents do, see Device::start_tx), so each pool stays single-threaded.
  PacketPtr make_packet() { return state().pool->acquire(); }
  /// Shard 0's pool — the whole pool in single-shard networks (every
  /// existing call site). Use packets_outstanding() for fleet totals.
  const PacketPool& packet_pool() const { return *shards_[0]->pool; }
  /// Packets currently in flight across all shards' pools.
  std::size_t packets_outstanding() const;

  /// Connects a.port(pa) <-> b.port(pb) with symmetric rate/propagation.
  void link(Device& a, int pa, Device& b, int pb, BitsPerSec rate,
            TimeNs prop_delay, std::uint64_t queue_capacity = 0);

  /// (Re)computes shortest-path ECMP routes from the currently *detected*
  /// topology. Must be called once after building the topology. Throws
  /// std::invalid_argument if a switch has more than kMaxEcmpWidth
  /// candidates toward one host. Reconvergence after a fault rebuilds the
  /// table without that check (see kMaxEcmpWidth).
  void compute_routes();

  /// ECMP candidate ports, ascending, at switch `dev` toward host `dst`
  /// (from the last route computation). Empty if unreachable, or if `dev`
  /// is not a switch or `dst` not a host.
  std::span<const int> routes(DeviceId dev, IpAddr dst) const {
    if (dev >= row_of_.size() || dst >= col_of_.size()) return {};
    const int row = row_of_[dev];
    const int col = col_of_[dst];
    if (row < 0 || col < 0) return {};
    const Cell c = cells_[static_cast<std::size_t>(row) * num_cols_ +
                          static_cast<std::size_t>(col)];
    return {route_ports_.data() + c.begin, c.count};
  }

  // --- failure injection -------------------------------------------------
  void fail_link(Device& dev, int port);
  void repair_link(Device& dev, int port);
  /// Fail-stop: all of the device's links go down (detectable).
  void fail_device_stop(Device& dev);
  /// Silent death: forwards nothing, carrier stays up (undetectable).
  void fail_device_silent(Device& dev);
  /// Kind-specific toggle for silent death: unlike `repair_device` it does
  /// not touch any other fault knob or link, so composed fault schedules
  /// (chaos plans stacking faults on one device) revert independently.
  void set_silent(Device& dev, bool dead);
  void repair_device(Device& dev);
  void set_loss_rate(Device& dev, double p);
  void set_blackhole(Device& dev, double fraction);
  /// Wire-level misbehaviour at a device (NIC or switch): mark arrivals
  /// corrupted (dropped by the receiving NIC's FCS check), deliver them
  /// twice, or delay a random subset by `delay` (reordering them past
  /// later arrivals). All repaired by `repair_device` or a rate of 0.
  void set_corrupt_rate(Device& dev, double p);
  void set_dup_rate(Device& dev, double p);
  void set_reorder(Device& dev, double p, TimeNs delay);

  /// Non-owning observability hook shared by everything fabric-adjacent.
  /// Null (the default) means fully dark; set it before building devices so
  /// construction-time registrations land. Attaching obs must never change
  /// simulation behaviour.
  void set_obs(obs::Obs* obs) { obs_ = obs; }
  obs::Obs* obs() const { return obs_; }

  /// The calling shard's engine (the single engine in legacy networks).
  /// Inside a sharded run this is the engine of the shard whose events the
  /// current thread is executing — i.e. always the home engine of the
  /// device whose handler is on the stack.
  sim::Engine& engine() {
    return sharded_ != nullptr ? sharded_->shard(sim::current_shard())
                               : *engine_;
  }
  /// Non-null when this fabric runs on a ShardedEngine.
  sim::ShardedEngine* sharded() { return sharded_; }
  Rng& rng() { return state().rng; }
  const NetworkParams& params() const { return params_; }
  DropStats& drops() { return state().drops; }
  /// Shard 0's counters (the whole story in single-shard networks); use
  /// the *_total() variants for fleet-wide numbers.
  const DropStats& drops() const { return shards_[0]->drops; }
  WireFaultStats& wire_faults() { return state().wire_faults; }
  const WireFaultStats& wire_faults() const { return shards_[0]->wire_faults; }
  DropStats drops_total() const;
  WireFaultStats wire_faults_total() const;
  std::uint64_t next_packet_id() {
    ShardState& st = state();
    return st.packet_id_tag | st.next_packet_id++;
  }

  /// Smallest propagation delay on any link whose endpoints live on
  /// different shards (the upper bound for the conservative lookahead).
  /// -1 if no such link exists.
  TimeNs min_cross_shard_prop() const { return min_cross_shard_prop_; }

  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

 private:
  friend class Device;

  // Per-shard mutable fabric state. Everything a packet's journey touches
  // on its home shard lives here, so concurrent shards never share a
  // cache line, an RNG stream, a counter or a pool. Shard 0 is seeded
  // exactly like the legacy single-engine network; shard s > 0 gets a
  // forked stream. Packet ids are (shard << 48) | counter, with shard 0
  // untagged so single-shard ids match the legacy sequence bit-for-bit.
  struct alignas(64) ShardState {
    Rng rng;
    // Owned via the retire() protocol: packets captured in still-pending
    // engine closures may outlive the Network; the pool outlives them all.
    PacketPool* pool;
    DropStats drops;
    WireFaultStats wire_faults;
    std::uint64_t next_packet_id = 1;
    std::uint64_t packet_id_tag = 0;

    ShardState(Rng r, int shard)
        : rng(r),
          pool(new PacketPool),
          packet_id_tag(shard == 0
                            ? 0
                            : static_cast<std::uint64_t>(shard) << 48) {}
  };

  ShardState& state() {
    return *shards_[sharded_ != nullptr
                        ? static_cast<std::size_t>(sim::current_shard())
                        : 0];
  }

  void set_link_alive(Device& dev, int port, bool alive);
  void set_link_alive_now(Device& dev, int port, bool alive);
  void schedule_reconvergence();
  /// Rebuilds the route table; returns the widest cell's candidate count.
  std::size_t build_routes();

  sim::Engine* engine_;
  sim::ShardedEngine* sharded_ = nullptr;
  NetworkParams params_;
  obs::Obs* obs_ = nullptr;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<std::unique_ptr<Device>> devices_;
  DeviceId next_device_id_ = 1;
  TimeNs min_cross_shard_prop_ = -1;
  bool reconvergence_pending_ = false;

  // The route table. Device ids are dense (1..N) and a host's IpAddr is its
  // DeviceId, so ids index two vectors: `row_of_` gives each switch a row,
  // `col_of_` each host a column (-1 otherwise). Cell (row, col) is a slice
  // of `route_ports_`: the egress ports on shortest paths toward that host.
  // Read-only between rebuilds, which happen only at build time or at a
  // reconvergence (a barrier under sharding), so shards read it unlocked.
  struct Cell {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };
  std::vector<int> row_of_;
  std::vector<int> col_of_;
  std::size_t num_cols_ = 0;
  std::vector<Cell> cells_;
  std::vector<int> route_ports_;
};

}  // namespace repro::net
