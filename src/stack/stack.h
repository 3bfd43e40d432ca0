// The stack abstraction: one compute-side and one server-side interface
// that all five generations implement.
//
// `ComputeStack` is everything a compute node does with an I/O once the
// guest rings the doorbell: the data path (software SA over a byte-stream
// transport, or the fused SOLAR client), core accounting for the Table 1
// "consumed cores" metric, observability registration, and the chaos hooks
// the fault injector drives (CPU stalls, PCIe degradation, FPGA fault
// knobs). `ServerStack` is the matching storage-side engine in front of the
// block server.
//
// Adapters are created through `make_compute_stack` / `make_server_stack`
// (adapters.cpp); nothing outside src/stack branches on StackKind to build
// or drive a data path.
#pragma once

#include <memory>

#include "common/rng.h"
#include "dpu/dpu.h"
#include "ec/params.h"
#include "obs/resettable.h"
#include "qos/slo.h"
#include "rdma/rdma.h"
#include "sa/agent.h"
#include "sa/crypto.h"
#include "sa/qos_table.h"
#include "sa/segment_table.h"
#include "solar/client.h"
#include "solar/server.h"
#include "stack/kind.h"
#include "storage/block_server.h"
#include "transport/tcp.h"

namespace repro::obs {
class Obs;
}

namespace repro::qos {
class CpuScheduler;
}

namespace repro::stack {

/// Per-fleet stack configuration shared by every node. `ebs::ClusterParams`
/// derives from this, so experiment code keeps writing `params.solar.…`.
struct StackParams {
  bool on_dpu = false;  ///< compute side hosted on ALI-DPU (bare-metal)
  int host_cpu_cores = 8;
  int server_stack_cores = 6;
  dpu::DpuParams dpu;
  sa::SaParams sa;
  solar::SolarParams solar;
  rdma::RdmaParams rdma;
  qos::QosParams qos;
  ec::EcParams ec;
};

/// Everything a compute-side adapter needs from the node that hosts it.
/// `rng` is the node's forked stream; adapters draw sub-streams from it
/// with the same fork indices the pre-refactor wiring used, so homogeneous
/// clusters stay bit-identical.
struct ComputeContext {
  sim::Engine& engine;
  net::Nic& nic;
  sa::SegmentTable& segments;
  sa::QosTable& qos;
  sa::BlockCipher* cipher;
  const StackParams& params;
  Rng rng;
  /// Per-tenant SLO contracts (qos subsystem); null when the fleet runs
  /// without admission control — adapters then skip scheduler creation.
  const qos::SloTable* slos = nullptr;
};

/// Compute-side data path of one stack generation on one node.
class ComputeStack : public obs::Resettable {
 public:
  ~ComputeStack() override = default;

  virtual StackKind kind() const = 0;

  /// Guest-visible I/O submission (the virtio/NVMe doorbell).
  virtual void submit_io(transport::IoRequest io,
                         transport::IoCompleteFn done) = 0;

  /// "Consumed cores" on the compute side over `over` ns (Table 1 metric).
  virtual double consumed_cores(TimeNs over) const = 0;
  virtual void reset_accounting() = 0;

  /// obs::Resettable: warmup resets route through the registry path.
  void reset_counters() override { reset_accounting(); }

  /// Registers this stack's metrics/gauges on `obs` (labels: node=<nic>).
  virtual void register_observables(obs::Obs& obs, net::Nic& nic) = 0;

  // --- chaos hooks (fault injection / repair) --------------------------
  /// Stalls the cores the data path runs on (DPU cores when hosted there).
  virtual void chaos_stall_cores(TimeNs duration) = 0;
  /// Degrades the DPU's internal PCIe by `magnitude`; returns the previous
  /// degradation factor, or 0.0 when the stack has no DPU to degrade.
  virtual double chaos_pcie_degrade(double /*magnitude*/) { return 0.0; }
  /// Restores the internal PCIe to `saved` (0.0 = pristine).
  virtual void chaos_pcie_restore(double /*saved*/) {}
  /// FPGA fault knobs, or nullptr when no FPGA pipeline exists on the node.
  virtual dpu::FpgaFaults* chaos_fpga_faults() { return nullptr; }

  // --- component accessors (experiments, chaos, tests) -----------------
  virtual sim::CpuPool* host_cpu() { return nullptr; }
  virtual dpu::AliDpu* dpu() { return nullptr; }
  virtual solar::SolarClient* solar() { return nullptr; }
  virtual sa::StorageAgent* agent() { return nullptr; }
  /// The tenant-aware WFQ CPU scheduler, when `sched_enabled` built one.
  virtual qos::CpuScheduler* scheduler() { return nullptr; }
  virtual transport::TcpStack* tcp() { return nullptr; }
};

/// Everything a server-side adapter needs from its storage node. `rng` is
/// pre-forked by the node (stream 2 for the first family, 3, 4, … for
/// additional families on heterogeneous fleets).
struct ServerContext {
  sim::Engine& engine;
  net::Nic& nic;
  sim::CpuPool& cpu;
  storage::BlockServer& block_server;
  const StackParams& params;
  /// Storage servers always run the user-space stack server-side once LUNA
  /// shipped; only an all-kernel-TCP fleet runs kernel TCP there too.
  bool kernel_generation;
  Rng rng;
};

/// Server-side engine of one stack family in front of the block server.
/// Construction installs the NIC deliver hook; heterogeneous nodes snapshot
/// and demux those hooks by destination port (see ebs::StorageNode).
class ServerStack {
 public:
  virtual ~ServerStack() = default;
};

/// Builds the compute-side data path of generation `kind`.
std::unique_ptr<ComputeStack> make_compute_stack(StackKind kind,
                                                 ComputeContext ctx);
/// Builds the server-side engine of `family`.
std::unique_ptr<ServerStack> make_server_stack(ServerFamily family,
                                               ServerContext ctx);

}  // namespace repro::stack
