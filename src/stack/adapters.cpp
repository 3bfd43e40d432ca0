// The five concrete stack adapters and the two functions that build them.
//
// Construction preserves the exact RNG fork indices of the pre-refactor
// wiring (dpu=1, solar client=2, tcp/rdma=3 on the compute side; the
// server side receives its stream pre-forked), so homogeneous clusters
// are bit-identical to the old hard-wired composition.
#include "stack/stack.h"

#include <memory>
#include <utility>

#include "obs/obs.h"
#include "qos/scheduler.h"

namespace repro::stack {

namespace {

/// Shared compute-side plumbing: optional host CPU pool + optional DPU,
/// core accounting over both, the DPU-backed chaos hooks, and the
/// cpu/dpu observability block. The original injector drove DPU faults on
/// *any* node with a DPU (including software stacks hosted on one), so the
/// hooks key off the DPU's presence, not the generation.
class ComputeStackBase : public ComputeStack {
 public:
  double consumed_cores(TimeNs over) const override {
    double total = 0.0;
    if (cpu_) total += cpu_->consumed_cores(over);
    if (dpu_) total += dpu_->cpu().consumed_cores(over);
    return total;
  }

  void reset_accounting() override {
    if (cpu_) cpu_->reset_accounting();
    if (dpu_) dpu_->cpu().reset_accounting();
  }

  void register_observables(obs::Obs& obs, net::Nic& nic) override {
    obs::Registry& reg = obs.registry();
    const obs::Labels node = obs::label("node", nic.name());
    if (cpu_) {
      reg.expose_gauge("cpu.busy_ns", node,
                       [c = cpu_.get()]() -> std::int64_t {
                         return c->total_busy_ns();
                       });
      reg.add_resettable(cpu_.get());
    }
    if (dpu_) {
      reg.expose_gauge("dpu.cpu.busy_ns", node,
                       [c = &dpu_->cpu()]() -> std::int64_t {
                         return c->total_busy_ns();
                       });
      reg.expose_gauge("dpu.pcie.bytes", node,
                       [p = &dpu_->internal_pcie()]() -> std::int64_t {
                         return static_cast<std::int64_t>(
                             p->bytes_transferred());
                       });
      reg.expose_gauge("dpu.pcie.backlog_ns", node,
                       [p = &dpu_->internal_pcie()]() -> std::int64_t {
                         return p->backlog();
                       });
      reg.expose_gauge("dpu.guest_dma.bytes", node,
                       [p = &dpu_->guest_dma()]() -> std::int64_t {
                         return static_cast<std::int64_t>(
                             p->bytes_transferred());
                       });
      reg.add_resettable(&dpu_->cpu());
      reg.add_resettable(&dpu_->internal_pcie());
      reg.add_resettable(&dpu_->guest_dma());
    }
    register_stack_observables(obs, nic, reg);
  }

  void chaos_stall_cores(TimeNs duration) override {
    if (dpu_) {
      dpu_->cpu().stall_all(duration);
    } else if (cpu_) {
      cpu_->stall_all(duration);
    }
  }

  double chaos_pcie_degrade(double magnitude) override {
    if (!dpu_) return 0.0;
    const double saved = dpu_->internal_pcie().degrade();
    dpu_->internal_pcie().set_degrade(magnitude);
    return saved;
  }

  void chaos_pcie_restore(double saved) override {
    if (dpu_) dpu_->internal_pcie().set_degrade(saved > 0.0 ? saved : 1.0);
  }

  dpu::FpgaFaults* chaos_fpga_faults() override {
    return dpu_ ? &dpu_->fpga().params().faults : nullptr;
  }

  sim::CpuPool* host_cpu() override { return cpu_.get(); }
  dpu::AliDpu* dpu() override { return dpu_.get(); }

 protected:
  /// Stack-specific metrics after the shared cpu/dpu block (registration
  /// order is part of the export contract).
  virtual void register_stack_observables(obs::Obs& obs, net::Nic& nic,
                                          obs::Registry& reg) = 0;

  std::unique_ptr<sim::CpuPool> cpu_;
  std::unique_ptr<dpu::AliDpu> dpu_;
};

/// SOLAR / SOLAR*: the fused SA + transport on ALI-DPU (§4). SOLAR* is the
/// same protocol with `offload = false` (§4.7 ablation).
class SolarFamilyStack final : public ComputeStackBase {
 public:
  SolarFamilyStack(StackKind kind, ComputeContext& ctx) : kind_(kind) {
    dpu_ = std::make_unique<dpu::AliDpu>(ctx.engine, ctx.params.dpu,
                                         ctx.rng.fork(1));
    solar::SolarParams sp = ctx.params.solar;
    sp.offload = kind == StackKind::kSolar;
    solar_ = std::make_unique<solar::SolarClient>(
        ctx.engine, *dpu_, ctx.nic, ctx.segments, ctx.qos, sp,
        ctx.rng.fork(2));
    // Tenant-aware WFQ over the DPU cores (qos subsystem). Only built when
    // scheduling is on AND the fleet carries SLO contracts — otherwise the
    // client dispatches straight to the pool, bit-identical to before.
    if (ctx.params.qos.enabled && ctx.params.qos.sched_enabled &&
        ctx.slos != nullptr) {
      sched_ = std::make_unique<qos::CpuScheduler>(dpu_->cpu(), *ctx.slos,
                                                   ctx.params.qos);
      solar_->set_cpu_scheduler(sched_.get());
    }
  }

  StackKind kind() const override { return kind_; }

  void submit_io(transport::IoRequest io,
                 transport::IoCompleteFn done) override {
    solar_->submit_io(std::move(io), std::move(done));
  }

  solar::SolarClient* solar() override { return solar_.get(); }
  qos::CpuScheduler* scheduler() override { return sched_.get(); }

 private:
  void register_stack_observables(obs::Obs& obs, net::Nic& nic,
                                  obs::Registry& reg) override {
    (void)obs;
    (void)nic;
    solar_->register_metrics(reg);
  }

  StackKind kind_;
  std::unique_ptr<solar::SolarClient> solar_;
  std::unique_ptr<qos::CpuScheduler> sched_;
};

/// Shared shape of the three software-SA generations: a StorageAgent over
/// an RPC transport, optionally hosted on a DPU — where every payload byte
/// crosses the internal PCIe twice in each direction (Fig. 10 a/b).
class SoftwareStackBase : public ComputeStackBase {
 public:
  void submit_io(transport::IoRequest io,
                 transport::IoCompleteFn done) override {
    if (!pcie_taxed_) {
      agent_->submit_io(std::move(io), std::move(done));
      return;
    }
    auto& pcie = dpu_->internal_pcie();
    const std::uint32_t len = io.len;
    const bool write = io.op == transport::OpType::kWrite;
    auto forward = [this, io = std::move(io), done = std::move(done), len,
                    write]() mutable {
      agent_->submit_io(
          std::move(io),
          [this, done = std::move(done), len, write](transport::IoResult res) {
            if (write) {
              done(std::move(res));
              return;
            }
            auto& pcie2 = dpu_->internal_pcie();
            auto shared = std::make_shared<transport::IoResult>(std::move(res));
            pcie2.transfer(len, [this, shared, done, len]() mutable {
              dpu_->internal_pcie().transfer(len, [shared, done] {
                done(std::move(*shared));
              });
            });
          });
    };
    if (write) {
      pcie.transfer(len, [this, len, forward = std::move(forward)]() mutable {
        dpu_->internal_pcie().transfer(len, std::move(forward));
      });
    } else {
      forward();
    }
  }

  sa::StorageAgent* agent() override { return agent_.get(); }

 protected:
  void register_stack_observables(obs::Obs& obs, net::Nic& nic,
                                  obs::Registry& reg) override {
    agent_->set_obs(&obs, static_cast<std::uint32_t>(nic.id()));
    agent_->register_metrics(reg, nic.name());
  }

  std::unique_ptr<sa::StorageAgent> agent_;
  bool pcie_taxed_ = false;  ///< software stack on DPU: internal PCIe x2
};

/// Kernel TCP / LUNA: one TCP engine parameterized by the cost profile.
class TcpComputeStack final : public SoftwareStackBase {
 public:
  TcpComputeStack(StackKind kind, ComputeContext& ctx) : kind_(kind) {
    const StackParams& p = ctx.params;
    const bool kernel = kind == StackKind::kKernelTcp;
    if (p.on_dpu) {
      dpu_ = std::make_unique<dpu::AliDpu>(ctx.engine, p.dpu, ctx.rng.fork(1));
      pcie_taxed_ = true;
    }
    const int cores = p.on_dpu ? p.dpu.cpu_cores : p.host_cpu_cores;
    // Kernel TCP schedules work across cores with cross-core cost;
    // LUNA is share-nothing by connection/VD hash (§3.2).
    cpu_ = std::make_unique<sim::CpuPool>(
        ctx.engine, "host-cpu", cores,
        kernel ? sim::CpuPool::Dispatch::kLeastLoaded
               : sim::CpuPool::Dispatch::kByHash,
        kernel ? ns(250) : 0);
    tcp_ = std::make_unique<transport::TcpStack>(
        ctx.engine, ctx.nic, *cpu_,
        kernel ? transport::kernel_tcp_profile() : transport::luna_profile(),
        ctx.rng.fork(3));
    agent_ = std::make_unique<sa::StorageAgent>(
        ctx.engine, *cpu_, ctx.segments, ctx.qos, *tcp_, ctx.cipher, p.sa);
  }

  StackKind kind() const override { return kind_; }
  transport::TcpStack* tcp() override { return tcp_.get(); }

 private:
  StackKind kind_;
  std::unique_ptr<transport::TcpStack> tcp_;
};

/// RC RDMA under the software SA (the rejected alternative, §3.1).
class RdmaComputeStack final : public SoftwareStackBase {
 public:
  explicit RdmaComputeStack(ComputeContext& ctx) {
    const StackParams& p = ctx.params;
    if (p.on_dpu) {
      dpu_ = std::make_unique<dpu::AliDpu>(ctx.engine, p.dpu, ctx.rng.fork(1));
      pcie_taxed_ = true;
    }
    const int cores = p.on_dpu ? p.dpu.cpu_cores : p.host_cpu_cores;
    cpu_ = std::make_unique<sim::CpuPool>(ctx.engine, "host-cpu", cores,
                                          sim::CpuPool::Dispatch::kByHash);
    rdma_ = std::make_unique<rdma::RdmaStack>(ctx.engine, ctx.nic, *cpu_,
                                              p.rdma, ctx.rng.fork(3));
    agent_ = std::make_unique<sa::StorageAgent>(
        ctx.engine, *cpu_, ctx.segments, ctx.qos, *rdma_, ctx.cipher, p.sa);
  }

  StackKind kind() const override { return StackKind::kRdma; }

 private:
  std::unique_ptr<rdma::RdmaStack> rdma_;
};

// --- server side -----------------------------------------------------

class TcpServerStack final : public ServerStack {
 public:
  explicit TcpServerStack(ServerContext& ctx) {
    tcp_ = std::make_unique<transport::TcpStack>(
        ctx.engine, ctx.nic, ctx.cpu,
        ctx.kernel_generation ? transport::kernel_tcp_profile()
                              : transport::luna_profile(),
        std::move(ctx.rng));
    tcp_->set_handler(
        [bs = &ctx.block_server](transport::StorageRequest req,
                                 std::function<void(transport::StorageResponse)>
                                     reply) {
          bs->handle(std::move(req), std::move(reply));
        });
  }

 private:
  std::unique_ptr<transport::TcpStack> tcp_;
};

class RdmaServerStack final : public ServerStack {
 public:
  explicit RdmaServerStack(ServerContext& ctx) {
    rdma_ = std::make_unique<rdma::RdmaStack>(ctx.engine, ctx.nic, ctx.cpu,
                                              ctx.params.rdma,
                                              std::move(ctx.rng));
    rdma_->set_handler(
        [bs = &ctx.block_server](transport::StorageRequest req,
                                 std::function<void(transport::StorageResponse)>
                                     reply) {
          bs->handle(std::move(req), std::move(reply));
        });
  }

 private:
  std::unique_ptr<rdma::RdmaStack> rdma_;
};

class SolarServerStack final : public ServerStack {
 public:
  explicit SolarServerStack(ServerContext& ctx) {
    solar_ = std::make_unique<solar::SolarServer>(
        ctx.engine, ctx.nic, ctx.cpu, ctx.block_server,
        solar::SolarServerParams{}, std::move(ctx.rng));
  }

 private:
  std::unique_ptr<solar::SolarServer> solar_;
};

}  // namespace

std::unique_ptr<ComputeStack> make_compute_stack(StackKind kind,
                                                 ComputeContext ctx) {
  switch (kind) {
    case StackKind::kKernelTcp:
    case StackKind::kLuna:
      return std::make_unique<TcpComputeStack>(kind, ctx);
    case StackKind::kRdma:
      return std::make_unique<RdmaComputeStack>(ctx);
    case StackKind::kSolarStar:
    case StackKind::kSolar:
      return std::make_unique<SolarFamilyStack>(kind, ctx);
  }
  return nullptr;
}

std::unique_ptr<ServerStack> make_server_stack(ServerFamily family,
                                               ServerContext ctx) {
  switch (family) {
    case ServerFamily::kTcp:
      return std::make_unique<TcpServerStack>(ctx);
    case ServerFamily::kRdma:
      return std::make_unique<RdmaServerStack>(ctx);
    case ServerFamily::kSolar:
      return std::make_unique<SolarServerStack>(ctx);
  }
  return nullptr;
}

}  // namespace repro::stack
