// Per-node admission control: the Mooncake-style early-rejection gate that
// sits between the guest doorbell and the stack's data path.
//
// One `NodeAdmission` per compute node (node-affine state, bound to the
// node's home engine at construction, so sharded runs stay bit-identical
// at any thread count). For each arriving I/O it combines
//   * the tenant's token-bucket wait (a non-consuming `QosTable::peek` —
//     the stack still does the real, consuming admit, so QoS'd VDs behave
//     byte-for-byte the same whether this layer is present or not), and
//   * the tenant's sliding-window load prediction (`LoadPredictor`)
// and rejects up-front when the predicted sojourn can no longer meet the
// tenant's p99 target — instead of queueing work that is already doomed.
// Guaranteed tenants running under their promised IOPS bypass rejection
// (the admission floor); best-effort tenants absorb the shed load.
//
// Rejections complete with `StorageStatus::kRejected` after a small
// `reject_latency` so closed-loop generators advance simulated time, and
// they count as completions for the exactly-once oracle (every submitted
// I/O still gets exactly one completion).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "obs/registry.h"
#include "obs/resettable.h"
#include "qos/predictor.h"
#include "qos/slo.h"
#include "sa/qos_table.h"
#include "sim/engine.h"
#include "transport/message.h"

namespace repro::qos {

class NodeAdmission : public obs::Resettable {
 public:
  NodeAdmission(sim::Engine& engine, const SloTable& slos, sa::QosTable& qos,
                const QosParams& params);

  using PassFn =
      std::function<void(transport::IoRequest, transport::IoCompleteFn)>;

  /// Admits or rejects `io`. Admitted I/Os are forwarded through `pass`
  /// with `done` wrapped for completion bookkeeping; rejected ones complete
  /// with kRejected after `reject_latency` and never reach `pass`.
  void submit(transport::IoRequest io, transport::IoCompleteFn done,
              const PassFn& pass);

  /// Per-class counters, indexed by `SloClass`.
  struct Stats {
    std::uint64_t admitted[kSloClasses] = {0, 0};
    std::uint64_t rejected[kSloClasses] = {0, 0};
    std::uint64_t slo_ok[kSloClasses] = {0, 0};        ///< kOk within target
    std::uint64_t slo_violated[kSloClasses] = {0, 0};  ///< late or failed
  };
  const Stats& stats() const { return stats_; }
  /// Completions that met their SLO — the goodput numerator.
  std::uint64_t goodput_total() const {
    return stats_.slo_ok[0] + stats_.slo_ok[1];
  }

  /// Publishes per-class admit/reject/SLO counters and the goodput series
  /// gauge (labels: node=<node>, class=<class>).
  void register_metrics(obs::Registry& reg, const std::string& node);

  /// Warmup reset: zeroes counters, keeps predictor state (the model keeps
  /// what it learned; only the measurement restarts).
  void reset_counters() override { stats_ = Stats{}; }

 private:
  struct Tenant {
    const SloSpec* slo;  ///< points into the SloTable (or the default)
    LoadPredictor predictor;
    int inflight = 0;
  };
  Tenant& tenant(std::uint64_t vd_id);

  sim::Engine& engine_;
  const SloTable& slos_;
  sa::QosTable& qos_;
  QosParams params_;
  SloSpec default_slo_;  ///< contract for VDs with no explicit SLO
  std::unordered_map<std::uint64_t, Tenant> tenants_;
  /// Node-wide aggregate: a tenant starved so hard it never completes is
  /// "cold" in its own window forever, so doom must also be readable from
  /// the node's total queue (Mooncake predicts from instance load, not
  /// per-request history alone).
  LoadPredictor node_predictor_;
  int node_inflight_ = 0;
  Stats stats_;
};

}  // namespace repro::qos
