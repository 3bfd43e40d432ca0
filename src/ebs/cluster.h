// End-to-end EBS composition: build a Clos fabric, compute nodes running a
// chosen stack generation, storage nodes running block servers, and virtual
// disks striped across them. Every experiment harness goes through this.
//
// The five generations live behind the `stack` layer (src/stack): each
// compute node owns one `stack::ComputeStack` (`stack::make_compute_stack`),
// each storage node one server engine per family present in the fleet.
// Fleets are heterogeneous by assigning `ClusterParams::compute_stacks`
// per node (empty = homogeneous `stack`), which is how a rolling upgrade
// from LUNA to SOLAR shares one fabric mid-rollout.
//
// `on_dpu` moves the compute side onto ALI-DPU (bare-metal hosting, §4.3):
// software stacks then run on six wimpy cores and pay the internal-PCIe
// crossings of Fig. 10.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ec/client.h"
#include "ec/maintenance.h"
#include "net/topology.h"
#include "obs/registry.h"
#include "placement/cluster_view.h"
#include "placement/params.h"
#include "qos/admission.h"
#include "sim/shard_context.h"
#include "sim/sharded.h"
#include "stack/stack.h"
#include "storage/block_server.h"

namespace repro::obs {
class Obs;
}

namespace repro::ebs {

using StackKind = stack::StackKind;
using stack::stack_from_string;
using stack::to_string;

struct ClusterParams : stack::StackParams {
  net::ClosConfig topo;
  StackKind stack = StackKind::kLuna;
  /// Per-compute-node stack assignment (node i runs `compute_stacks[i]`).
  /// Empty = homogeneous fleet running `stack`. Shorter than the fleet =
  /// repeats cyclically.
  std::vector<StackKind> compute_stacks;
  storage::BlockServerParams block_server;
  /// Cluster-level placement control plane (src/placement). Disabled =
  /// the historical inline layout, bit-identical.
  placement::PlacementParams placement;
  std::uint64_t seed = 1;
  /// Servers each virtual disk stripes across. 0 (default) = every storage
  /// node, the historical behaviour. Fleet-scale runs set a small width so
  /// a VD's traffic touches a bounded server set instead of all 500.
  int vd_stripe_width = 0;
  /// Optional observability hookup: when set, the cluster hands the
  /// subsystem to the network, names every trace process, and registers
  /// all component metrics/gauges. Null = dark (the default): no obs code
  /// runs anywhere near the hot path.
  obs::Obs* obs = nullptr;

  /// Stack generation compute node `node` runs.
  StackKind stack_for(int node) const {
    if (compute_stacks.empty()) return stack;
    return compute_stacks[static_cast<std::size_t>(node) %
                          compute_stacks.size()];
  }
  /// Server families present in the fleet, in canonical enum order. An
  /// EC fleet (`ec.enabled`) runs the generations' one common transport
  /// family: EC is compute-side, its fragments are plain blocks.
  std::vector<stack::ServerFamily> server_families() const;
  /// Transport family the fleet's generations share — the family an EC
  /// fleet's servers run. Aborts on a mixed-transport EC fleet (EC
  /// fragments must all be reachable through one engine).
  stack::ServerFamily transport_family() const;
  /// True when every compute stack in the fleet is kernel TCP — only then
  /// do storage servers run kernel TCP server-side too.
  bool kernel_generation() const;
};

class Cluster;

/// One compute server: guest entry point + the configured data path.
class ComputeNode {
 public:
  ComputeNode(Cluster& cluster, int index, net::Nic& nic);

  /// Guest-visible I/O submission (the virtio/NVMe doorbell).
  void submit_io(transport::IoRequest io, transport::IoCompleteFn done);

  /// "Consumed cores" on the compute side over `over` ns (Table 1 metric).
  double consumed_cores(TimeNs over) const;
  void reset_accounting();

  net::Nic& nic() { return *nic_; }
  /// The node's data path. Chaos and experiments drive faults through its
  /// chaos hooks instead of poking components by generation.
  stack::ComputeStack& stack() { return *stack_; }
  StackKind stack_kind() const { return stack_->kind(); }

  // Component accessors, delegating to the stack (null when the generation
  // lacks the component).
  sim::CpuPool& cpu() { return *stack_->host_cpu(); }
  dpu::AliDpu* dpu() { return stack_->dpu(); }
  solar::SolarClient* solar() { return stack_->solar(); }
  sa::StorageAgent* agent() { return stack_->agent(); }
  transport::TcpStack* tcp() { return stack_->tcp(); }
  /// The node's admission gate, or null when the fleet runs without the
  /// qos subsystem (`ClusterParams::qos.enabled == false`).
  qos::NodeAdmission* admission() { return admission_.get(); }
  /// The node's EC striping layer, or null on replication fleets.
  ec::EcClient* ec() { return ec_.get(); }
  /// The node's EC maintenance agent, or null on replication fleets.
  ec::MaintenanceAgent* maintenance() { return maintenance_.get(); }

  /// Registers this node's metrics, gauges and trace names on `obs`.
  void register_observables(obs::Obs& obs);

 private:
  net::Nic* nic_;
  std::unique_ptr<stack::ComputeStack> stack_;
  std::unique_ptr<qos::NodeAdmission> admission_;
  std::unique_ptr<ec::EcClient> ec_;
  std::unique_ptr<ec::MaintenanceAgent> maintenance_;
};

/// One storage server: block server + one server-side engine per stack
/// family present in the fleet. With several families the NIC's deliver
/// hook demuxes by destination port (each family listens on its own).
class StorageNode {
 public:
  StorageNode(Cluster& cluster, int index, net::Nic& nic);

  storage::BlockServer& block_server() { return *block_server_; }
  net::Nic& nic() { return *nic_; }
  sim::CpuPool& cpu() { return *cpu_; }

  /// Registers this node's metrics, gauges and trace names on `obs`.
  void register_observables(obs::Obs& obs);

 private:
  net::Nic* nic_;
  std::unique_ptr<sim::CpuPool> cpu_;
  std::unique_ptr<storage::BlockServer> block_server_;
  std::vector<std::unique_ptr<stack::ServerStack>> stacks_;
};

class Cluster {
 public:
  Cluster(sim::Engine& engine, ClusterParams params);
  /// Sharded build: the fabric is partitioned into `se.shards()` node-affine
  /// shards (`params.topo.shards` is overwritten to match), every node is
  /// constructed under its home shard's scope, and the engine lookahead is
  /// set to the minimum cross-shard link propagation delay.
  Cluster(sim::ShardedEngine& se, ClusterParams params);
  ~Cluster();

  /// Creates a virtual disk striped over all storage nodes; returns vd id.
  std::uint64_t create_vd(std::uint64_t size_bytes);
  void set_qos(std::uint64_t vd_id, const sa::QosSpec& spec);
  /// Attaches an SLO contract to a VD. Like QoS specs, contracts must be in
  /// place before traffic starts (admission caches the spec pointer).
  void set_slo(std::uint64_t vd_id, const qos::SloSpec& spec);
  const qos::SloTable& slos() const { return slos_; }

  ComputeNode& compute(int i) { return *compute_nodes_[static_cast<std::size_t>(i)]; }
  StorageNode& storage(int i) { return *storage_nodes_[static_cast<std::size_t>(i)]; }
  int num_compute() const { return static_cast<int>(compute_nodes_.size()); }
  int num_storage() const { return static_cast<int>(storage_nodes_.size()); }

  /// Resets every compute node's core/NIC accounting in one sweep — the
  /// end-of-warmup hook harnesses call before the measured phase. Routed
  /// through a private (always-on) resettable collection, so the observable
  /// registry and its histograms are never disturbed.
  void reset_warmup();

  /// The calling shard's engine. Under a sharded build this routes through
  /// the thread's shard context (exactly like `net::Network::engine()`), so
  /// node components built under `ShardScope(s)` bind shard s's engine and
  /// events armed from shard s's worker stay on shard s.
  sim::Engine& engine() {
    return sharded_ != nullptr ? sharded_->shard(sim::current_shard())
                               : *engine_;
  }
  /// Non-null when built on a ShardedEngine.
  sim::ShardedEngine* sharded() { return sharded_; }
  /// Global simulation time (shard-safe: barrier time when sharded).
  TimeNs now() const {
    return sharded_ != nullptr ? sharded_->now() : engine_->now();
  }
  /// Home shard of compute node `i` (0 for single-shard builds).
  int compute_shard(int i) {
    return compute_nodes_[static_cast<std::size_t>(i)]->nic().shard();
  }
  /// Home shard of storage node `i` (0 for single-shard builds).
  int storage_shard(int i) {
    return storage_nodes_[static_cast<std::size_t>(i)]->nic().shard();
  }
  net::Network& network() { return *network_; }
  net::Clos& clos() { return clos_; }
  const ClusterParams& params() const { return params_; }
  sa::SegmentTable& segments() { return segments_; }
  sa::QosTable& qos() { return qos_; }
  /// The cluster-wide placement/health view. Always populated with rack
  /// membership (even when no policy is enabled) so oracles and benches
  /// can ask rack questions; fragment counts and health flow only when the
  /// placement subsystem is on.
  placement::ClusterView& placement_view() { return view_; }
  Rng& rng() { return rng_; }

 private:
  friend class ComputeNode;
  friend class StorageNode;

  /// Names every trace process and registers switch/node observables.
  /// Called once from the ctor when `params.obs` is set.
  void register_observables();
  /// Shared ctor tail: builds the fabric and the nodes (each under its home
  /// shard's scope when sharded).
  void init();

  sim::Engine* engine_;
  sim::ShardedEngine* sharded_ = nullptr;
  ClusterParams params_;
  Rng rng_;
  std::unique_ptr<net::Network> network_;
  net::Clos clos_;
  sa::SegmentTable segments_;
  placement::ClusterView view_;
  std::unique_ptr<placement::Policy> policy_;
  sa::QosTable qos_;
  qos::SloTable slos_;
  sa::BlockCipher cipher_;
  std::vector<std::unique_ptr<ComputeNode>> compute_nodes_;
  std::vector<std::unique_ptr<StorageNode>> storage_nodes_;
  /// Disabled registry used purely as a Resettable collection for
  /// `reset_warmup` (add_resettable works when disabled; no metric slots
  /// are ever allocated here).
  obs::Registry warmup_registry_{/*enabled=*/false};
  std::uint64_t next_vd_ = 1;
};

/// Submits `io` on compute node 0 and steps `engine` until it completes:
/// one probe I/O at a time. Status kTimeout if the engine runs out of
/// events first.
transport::IoResult run_io(sim::Engine& engine, Cluster& cluster,
                           transport::IoRequest io);

}  // namespace repro::ebs
