// Software Storage Agent (§2.2, Figure 2): the compute-side data path used
// with kernel TCP, LUNA and RDMA. Everything here runs on host/DPU CPU
// cores — per-I/O table lookups, per-block CRC and crypto — which is
// exactly why SA became the end-to-end bottleneck once LUNA fixed the
// network (§3.3), motivating SOLAR's hardware offload.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "sa/crypto.h"
#include "sa/qos_table.h"
#include "sa/segment_table.h"
#include "sim/cpu.h"
#include "sim/engine.h"
#include "transport/rpc.h"

namespace repro::obs {
class Obs;
class Registry;
class Tracer;
}

namespace repro::sa {

struct SaParams {
  TimeNs per_io_cost = us(4);        ///< QoS + Segment lookups, bookkeeping
  TimeNs per_block_crc = ns(900);    ///< software CRC32 of a 4 KB block
  TimeNs per_block_crypto = ns(1400);///< software AES-equivalent per block
  bool encrypt = false;
};

struct SaStats {
  std::uint64_t ios = 0;
  std::uint64_t rpcs = 0;
  std::uint64_t split_ios = 0;  ///< I/Os that crossed a segment boundary
  std::uint64_t crc_mismatches = 0;
  std::uint64_t qos_throttled_ns = 0;
};

class StorageAgent {
 public:
  StorageAgent(sim::Engine& engine, sim::CpuPool& cpu, SegmentTable& segments,
               QosTable& qos, transport::RpcTransport& rpc,
               const BlockCipher* cipher, SaParams params);

  /// Guest-facing entry point (what the virtio/NVMe frontend calls).
  void submit_io(transport::IoRequest io, transport::IoCompleteFn done);

  const SaStats& stats() const { return stats_; }
  SaParams& params() { return params_; }

  /// Hooks the agent up to the observability subsystem. The agent has no
  /// NIC of its own, so the caller supplies the trace pid (its node id).
  void set_obs(obs::Obs* obs, std::uint32_t pid);
  /// Publishes SA counters (labels: node=<node>).
  void register_metrics(obs::Registry& reg, const std::string& node);

 private:
  struct Gather;  // in-flight multi-extent I/O state (defined in agent.cpp)

  void run_io(transport::IoRequest io, transport::IoCompleteFn done,
              TimeNs admitted_at, TimeNs qos_wait);
  void finish_io(const std::shared_ptr<Gather>& g);
  /// Active tracer, or nullptr when observability is dark.
  obs::Tracer* trc() const;

  sim::Engine& engine_;
  sim::CpuPool& cpu_;
  SegmentTable& segments_;
  QosTable& qos_;
  transport::RpcTransport& rpc_;
  const BlockCipher* cipher_;
  SaParams params_;
  SaStats stats_;
  obs::Obs* obs_ = nullptr;
  std::uint32_t pid_ = 0;  ///< trace process id (owning node's device id)
};

}  // namespace repro::sa
