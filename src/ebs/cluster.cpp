#include "ebs/cluster.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "obs/obs.h"

namespace repro::ebs {

namespace {

/// The stack kinds a params block assigns across the fleet (the homogeneous
/// `stack` when no per-node list is given).
std::vector<StackKind> fleet_kinds(const ClusterParams& p) {
  if (p.compute_stacks.empty()) return {p.stack};
  return p.compute_stacks;
}

}  // namespace

std::vector<stack::ServerFamily> ClusterParams::server_families() const {
  if (ec.enabled) return {stack::ServerFamily::kEcServer};
  const std::vector<StackKind> kinds = fleet_kinds(*this);
  bool present[stack::kNumServerFamilies] = {};
  for (StackKind k : kinds) {
    present[static_cast<int>(stack::server_family(k))] = true;
  }
  std::vector<stack::ServerFamily> families;
  for (int f = 0; f < stack::kNumServerFamilies; ++f) {
    if (present[f]) families.push_back(static_cast<stack::ServerFamily>(f));
  }
  return families;
}

stack::ServerFamily ClusterParams::transport_family() const {
  const std::vector<StackKind> kinds = fleet_kinds(*this);
  const stack::ServerFamily family = stack::server_family(kinds.front());
  for (StackKind k : kinds) {
    if (stack::server_family(k) != family) {
      if (ec.enabled) std::abort();  // EC fleets share one transport family
    }
  }
  return family;
}

bool ClusterParams::kernel_generation() const {
  const std::vector<StackKind> kinds = fleet_kinds(*this);
  return std::all_of(kinds.begin(), kinds.end(), [](StackKind k) {
    return k == StackKind::kKernelTcp;
  });
}

ComputeNode::ComputeNode(Cluster& cluster, int index, net::Nic& nic)
    : nic_(&nic) {
  const ClusterParams& p = cluster.params_;
  stack::ComputeContext ctx{
      cluster.engine(),
      nic,
      cluster.segments_,
      cluster.qos_,
      &cluster.cipher_,
      p,
      cluster.rng_.fork(1000 + static_cast<std::uint64_t>(index))};
  if (p.qos.enabled) ctx.slos = &cluster.slos_;
  stack_ = stack::StackFactory::instance().make_compute(p.stack_for(index),
                                                        std::move(ctx));
  // Admission gate in front of the doorbell; node-affine (bound to this
  // node's home engine, under whose shard scope we are constructed).
  if (p.qos.enabled) {
    admission_ = std::make_unique<qos::NodeAdmission>(
        cluster.engine(), cluster.slos_, cluster.qos_, p.qos);
  }
  // EC striping layer between admission and the stack. Every sub-I/O it
  // issues (parity RMW, degraded decode, rebuild) is guest-shaped traffic
  // through the unmodified generation underneath.
  if (p.ec.enabled) {
    auto inner = [s = stack_.get()](transport::IoRequest io,
                                    transport::IoCompleteFn done) {
      s->submit_io(std::move(io), std::move(done));
    };
    ec_ = std::make_unique<ec::EcClient>(cluster.engine(), cluster.segments_,
                                         p.ec, inner);
    // Rebuild remap mutates the shared SegmentTable: under a sharded build
    // it must run at an epoch barrier with every shard quiescent (same
    // contract as net::Network::set_link_alive); the continuation is then
    // rescheduled onto this node's home engine.
    sim::ShardedEngine* sharded = cluster.sharded_;
    sa::SegmentTable* segments = &cluster.segments_;
    sim::Engine* home = &cluster.engine();
    ec::MaintenanceAgent::RemapFn remap =
        [sharded, segments, home](std::uint64_t vd, std::uint64_t seg,
                                  sa::SegmentLocation loc,
                                  std::function<void()> done) {
          if (sharded != nullptr && sharded->shards() > 1) {
            sharded->post_global(
                [segments, home, sharded, vd, seg, loc,
                 done = std::move(done)]() mutable {
                  segments->map(vd, seg, loc);
                  home->schedule_at(sharded->now(),
                                    [done = std::move(done)] { done(); });
                });
            return;
          }
          segments->map(vd, seg, loc);
          done();
        };
    maintenance_ = std::make_unique<ec::MaintenanceAgent>(
        cluster.engine(), *ec_, cluster.segments_, p.ec, inner,
        std::move(remap));
    if (p.placement.enabled) {
      // The maintenance plane reads the view (exposure-ordered drain under
      // the exposure policy) and reports health changes into it. Health
      // writes mutate shared state, so sharded builds route them through
      // the same global-barrier mechanism as segment remaps.
      maintenance_->set_cluster_view(
          &cluster.view_,
          p.placement.policy == placement::PolicyKind::kExposureAware);
      placement::ClusterView* view = &cluster.view_;
      maintenance_->set_health_listener(
          [sharded, view](net::IpAddr server, bool alive) {
            if (sharded != nullptr && sharded->shards() > 1) {
              sharded->post_global(
                  [view, server, alive] { view->set_health(server, alive); });
              return;
            }
            view->set_health(server, alive);
          });
    }
  }
}

void ComputeNode::submit_io(transport::IoRequest io,
                            transport::IoCompleteFn done) {
  if (admission_ != nullptr) {
    admission_->submit(std::move(io), std::move(done),
                       [this](transport::IoRequest fwd,
                              transport::IoCompleteFn fwd_done) {
                         if (ec_ != nullptr) {
                           ec_->submit_io(std::move(fwd), std::move(fwd_done));
                         } else {
                           stack_->submit_io(std::move(fwd),
                                             std::move(fwd_done));
                         }
                       });
    return;
  }
  if (ec_ != nullptr) {
    ec_->submit_io(std::move(io), std::move(done));
    return;
  }
  stack_->submit_io(std::move(io), std::move(done));
}

void ComputeNode::register_observables(obs::Obs& obs) {
  obs.tracer().set_process_name(static_cast<std::uint32_t>(nic_->id()),
                                nic_->name());
  nic_->register_metrics(obs.registry());
  stack_->register_observables(obs, *nic_);
  if (admission_ != nullptr) {
    admission_->register_metrics(obs.registry(), nic_->name());
  }
}

double ComputeNode::consumed_cores(TimeNs over) const {
  return stack_->consumed_cores(over);
}

void ComputeNode::reset_accounting() {
  stack_->reset_accounting();
  nic_->reset_counters();
}

StorageNode::StorageNode(Cluster& cluster, int index, net::Nic& nic)
    : nic_(&nic) {
  auto& eng = cluster.engine();
  const ClusterParams& p = cluster.params_;
  Rng rng = cluster.rng_.fork(2000 + static_cast<std::uint64_t>(index));
  cpu_ = std::make_unique<sim::CpuPool>(eng, "storage-cpu",
                                        p.server_stack_cores,
                                        sim::CpuPool::Dispatch::kByHash);
  storage::BlockServerParams bs = p.block_server;
  // EC replaces replication: each fragment is stored once, redundancy
  // comes from the parity fragments on other nodes.
  if (p.ec.enabled) bs.backend.replicas = 1;
  block_server_ = std::make_unique<storage::BlockServer>(eng, bs, rng.fork(1));
  const std::vector<stack::ServerFamily> families = p.server_families();
  const bool kernel = p.kernel_generation();
  // Each family engine installs its NIC deliver hook in its ctor. The first
  // family draws RNG stream 2 (the pre-refactor single-stack stream, so
  // homogeneous fleets stay bit-identical); extra families draw 3, 4, …
  struct Hook {
    std::uint16_t port;
    net::Nic::DeliverFn fn;
  };
  std::vector<Hook> hooks;
  std::uint64_t stream = 2;
  for (stack::ServerFamily family : families) {
    stack::ServerContext ctx{eng,    nic,    *cpu_, *block_server_,
                             p,      kernel, rng.fork(stream++)};
    if (family == stack::ServerFamily::kEcServer) {
      ctx.ec_inner = p.transport_family();
    }
    stacks_.push_back(
        stack::StackFactory::instance().make_server(family, std::move(ctx)));
    if (families.size() > 1) {
      hooks.push_back({stack::server_port(family), nic.deliver()});
    }
  }
  if (families.size() > 1) {
    // Heterogeneous node: demux inbound packets to the family that owns the
    // destination port. Packets addressed to no resident family (none in
    // practice — every client targets a server port) are dropped like any
    // host without a listener.
    nic.set_deliver([hooks = std::move(hooks)](net::Packet& pkt) {
      for (const Hook& h : hooks) {
        if (pkt.flow.dst_port == h.port) {
          h.fn(pkt);
          return;
        }
      }
    });
  }
}

void StorageNode::register_observables(obs::Obs& obs) {
  obs::Registry& reg = obs.registry();
  obs.tracer().set_process_name(static_cast<std::uint32_t>(nic_->id()),
                                nic_->name());
  nic_->register_metrics(reg);
  const obs::Labels node = obs::label("node", nic_->name());
  reg.expose_gauge("storage.cpu.busy_ns", node,
                   [c = cpu_.get()]() -> std::int64_t {
                     return c->total_busy_ns();
                   });
  reg.add_resettable(cpu_.get());
  reg.expose_gauge("ssd.queue_backlog_ns", node,
                   [b = block_server_.get()]() -> std::int64_t {
                     return b->ssd_queue_backlog();
                   });
  reg.expose_gauge("ssd.ops", node,
                   [b = block_server_.get()]() -> std::int64_t {
                     return static_cast<std::int64_t>(b->ssd_ops());
                   });
}

Cluster::Cluster(sim::Engine& engine, ClusterParams params)
    : engine_(&engine),
      params_(std::move(params)),
      rng_(params_.seed),
      cipher_(params_.dpu.cipher_key) {
  network_ = std::make_unique<net::Network>(engine, net::NetworkParams{},
                                            rng_.next());
  init();
}

Cluster::Cluster(sim::ShardedEngine& se, ClusterParams params)
    : engine_(&se.shard(0)),
      sharded_(&se),
      params_(std::move(params)),
      rng_(params_.seed),
      cipher_(params_.dpu.cipher_key) {
  // The engine's shard count is the single source of truth; the topology
  // partition follows it.
  params_.topo.shards = se.shards();
  if (params_.obs != nullptr) {
    params_.obs->tracer().set_shards(se.shards());
  }
  network_ = std::make_unique<net::Network>(se, net::NetworkParams{},
                                            rng_.next());
  init();
  // Conservative lookahead: the fastest cross-shard wire bounds how far a
  // shard may run ahead before a neighbour could affect it.
  if (network_->min_cross_shard_prop() > 0) {
    se.set_lookahead(network_->min_cross_shard_prop());
  }
}

void Cluster::init() {
  if (params_.obs != nullptr) network_->set_obs(params_.obs);
  clos_ = net::build_clos(*network_, params_.topo);
  // Rack membership is static topology: feed the view once, at build time
  // (serial — no shard has started running), for policies and oracles.
  for (int i = 0; i < static_cast<int>(clos_.storage.size()); ++i) {
    view_.set_rack(clos_.storage[static_cast<std::size_t>(i)]->ip(),
                   clos_.rack_of_server(i));
  }
  if (params_.placement.enabled) {
    policy_ = placement::make_policy(params_.placement.policy);
    segments_.set_policy(policy_.get(), &view_);
  }
  for (int i = 0; i < static_cast<int>(clos_.storage.size()); ++i) {
    net::Nic& nic = *clos_.storage[static_cast<std::size_t>(i)];
    // Build the node under its NIC's home shard so every engine-bound
    // component (CPU pool, block server, server stacks) lands there.
    sim::ShardScope scope(nic.shard());
    storage_nodes_.push_back(std::make_unique<StorageNode>(*this, i, nic));
  }
  for (int i = 0; i < static_cast<int>(clos_.compute.size()); ++i) {
    net::Nic& nic = *clos_.compute[static_cast<std::size_t>(i)];
    sim::ShardScope scope(nic.shard());
    compute_nodes_.push_back(std::make_unique<ComputeNode>(*this, i, nic));
  }
  for (auto& n : compute_nodes_) {
    warmup_registry_.add_resettable(&n->stack());
    warmup_registry_.add_resettable(&n->nic());
    if (n->admission() != nullptr) {
      warmup_registry_.add_resettable(n->admission());
    }
  }
  if (params_.obs != nullptr) register_observables();
}

void Cluster::reset_warmup() { warmup_registry_.reset_all(); }

void Cluster::register_observables() {
  obs::Obs& obs = *params_.obs;
  obs::Registry& reg = obs.registry();
  auto switches = [&](const std::vector<net::Switch*>& sws) {
    for (net::Switch* sw : sws) {
      obs.tracer().set_process_name(static_cast<std::uint32_t>(sw->id()),
                                    sw->name());
      sw->register_metrics(reg);
    }
  };
  switches(clos_.compute_tors);
  switches(clos_.compute_spines);
  switches(clos_.cores);
  switches(clos_.storage_spines);
  switches(clos_.storage_tors);
  for (auto& n : compute_nodes_) {
    sim::ShardScope scope(n->nic().shard());
    n->register_observables(obs);
  }
  for (auto& n : storage_nodes_) {
    sim::ShardScope scope(n->nic().shard());
    n->register_observables(obs);
  }
}

Cluster::~Cluster() = default;

std::uint64_t Cluster::create_vd(std::uint64_t size_bytes) {
  const std::uint64_t vd = next_vd_++;
  const std::size_t width =
      params_.vd_stripe_width > 0
          ? std::min<std::size_t>(
                static_cast<std::size_t>(params_.vd_stripe_width),
                storage_nodes_.size())
          : storage_nodes_.size();
  std::vector<net::IpAddr> servers;
  servers.reserve(width);
  // Stripe starting at a rotating server so VDs spread evenly.
  const std::size_t start = static_cast<std::size_t>(vd) %
                            storage_nodes_.size();
  for (std::size_t i = 0; i < width; ++i) {
    servers.push_back(
        storage_nodes_[(start + i) % storage_nodes_.size()]->nic().ip());
  }
  if (params_.ec.enabled) {
    // EC layout: the server list becomes the stripe rotation pool; it must
    // hold at least k+m distinct servers (k+m+1 for rebuild headroom).
    if (servers.size() < static_cast<std::size_t>(params_.ec.k) +
                             static_cast<std::size_t>(params_.ec.m)) {
      std::abort();
    }
    segments_.map_disk_ec(vd, size_bytes, servers, params_.ec.k,
                          params_.ec.m);
    return vd;
  }
  segments_.map_disk(vd, size_bytes, servers);
  return vd;
}

void Cluster::set_qos(std::uint64_t vd_id, const sa::QosSpec& spec) {
  qos_.set(vd_id, spec);
}

void Cluster::set_slo(std::uint64_t vd_id, const qos::SloSpec& spec) {
  slos_.set(vd_id, spec);
}

}  // namespace repro::ebs
