// ClusterView: the cluster-level state the placement & repair control plane
// shares across nodes — per-server rack membership and health, and per-rack
// placement pressure (fragment counts).
//
// Write discipline (this is shared state on sharded builds):
//  * rack membership and per-rack fragment counts are written only at
//    cluster-construction / create_vd time, before any worker thread runs;
//  * health updates arrive through the cluster's health listener, which
//    routes them over `ShardedEngine::post_global` when shards > 1 — the
//    same every-shard-quiescent barrier the rebuild RemapFn uses.
// Readers (placement policies, maintenance exposure ordering) thus never
// race a writer, and reads at a given simulated time are bit-deterministic
// at any worker-thread count.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/packet.h"

namespace repro::placement {

class ClusterView {
 public:
  // --- topology (map-time writes) ---------------------------------------
  void set_rack(net::IpAddr server, int rack);
  /// Rack of `server`, or -1 when unknown (policies then fall back to the
  /// legacy layout).
  int rack_of(net::IpAddr server) const;
  /// Racks seen so far (max rack id + 1).
  int num_racks() const { return num_racks_; }

  // --- placement pressure (map-time writes) ------------------------------
  /// Accounts `count` fragments placed into `rack` (ExposureAware feeds
  /// this as it schedules VDs, so later VDs start their rack rotation at
  /// the least-loaded rack).
  void add_rack_fragments(int rack, std::uint64_t count);
  std::uint64_t rack_fragments(int rack) const;

  // --- health (barrier-routed writes) ------------------------------------
  void set_health(net::IpAddr server, bool alive);
  /// Servers default to alive until declared otherwise.
  bool alive(net::IpAddr server) const;
  int servers_down() const { return servers_down_; }

  /// Surviving-fragment exposure of one stripe: how many of its fragments
  /// currently sit on a dead server. Fragments with `block_server == 0`
  /// (past-the-end tail slots) do not count.
  template <typename Locs>
  int exposure(const Locs& frags) const {
    int lost = 0;
    for (const auto& loc : frags) {
      if (loc.block_server != 0 && !alive(loc.block_server)) ++lost;
    }
    return lost;
  }

 private:
  std::map<net::IpAddr, int> racks_;
  std::map<net::IpAddr, bool> health_;
  std::vector<std::uint64_t> rack_fragments_;
  int num_racks_ = 0;
  int servers_down_ = 0;
};

}  // namespace repro::placement
