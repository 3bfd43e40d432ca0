// SOLAR client: the fused storage-agent + transport running on ALI-DPU
// (§4.4-4.5). There is no connection state and no packet reassembly:
// every 4 KB block travels as one self-contained UDP packet, the FPGA
// pipeline does QoS/Block lookups, CRC and SEC, and the DPU CPU only sees
// RPC bookkeeping, path selection and congestion control.
//
// `offload = false` gives SOLAR* (§4.7): the same protocol with the data
// path forced through the DPU CPU and the internal PCIe — the ablation the
// paper uses to isolate how much of SOLAR's win is the hardware data path.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "common/rng.h"
#include "dpu/dpu.h"
#include "net/nic.h"
#include "sa/qos_table.h"
#include "sa/segment_table.h"
#include "sim/engine.h"
#include "solar/frame.h"
#include "solar/path.h"
#include "transport/message.h"

namespace repro::obs {
class Registry;
class Tracer;
}

namespace repro::qos {
class CpuScheduler;
}

namespace repro::solar {

struct SolarParams {
  PathParams path;
  std::uint32_t block_size = 4096;  ///< one-block-one-packet (4K jumbo)
  bool offload = true;              ///< false = SOLAR*
  bool encrypt = false;
  bool aggregate_check = true;      ///< software CRC aggregation (§4.5)
  /// §4.5's stated future work ("we plan to make the path selection more
  /// explicit with INT probing"): when on, every path is probed
  /// periodically so RTT/INT stay fresh and sick paths are noticed even
  /// between I/O bursts.
  bool probe_paths = false;
  TimeNs probe_interval = ms(1);
  // DPU CPU service times, calibrated to §4.8's ~150K IOPS per core
  // (path selection + per-packet-ACK congestion control stay on the CPU,
  // which §4.7 calls out as SOLAR's residual CPU load, especially WRITE).
  /// Fixed per-RPC issue cost (doorbell poll, RPC bookkeeping): the bulk
  /// of SOLAR's per-I/O CPU (§4.7); the per-block marginal cost is kept
  /// ~1us so large I/Os stream at line rate from one core (Fig. 14a).
  TimeNs cpu_per_rpc = us(4);
  TimeNs cpu_per_packet = ns(300);  ///< poll + path selection + doorbell
  TimeNs cpu_per_ack = ns(700);     ///< CC/window update per ACK (§4.7)
  TimeNs cpu_agg_crc_per_rpc = ns(1200);  ///< one software CRC per RPC
  // Software data-path costs (SOLAR* or repair fallback).
  TimeNs sw_crc_per_block = ns(900);
  TimeNs sw_sec_per_block = ns(1400);
  TimeNs response_timeout_extra = ms(6);  ///< storage-side allowance
};

struct SolarStats {
  std::uint64_t ios = 0;
  std::uint64_t rpcs = 0;
  std::uint64_t data_pkts_tx = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t pkt_timeouts = 0;
  std::uint64_t agg_check_failures = 0;   ///< hardware faults caught
  std::uint64_t blocks_repaired = 0;      ///< software-path resends
  std::uint64_t read_hw_crc_rejects = 0;  ///< hardware-detected rx errors
  std::uint64_t path_redraws = 0;
};

class SolarClient {
 public:
  static constexpr std::uint16_t kServerPort = 9020;

  SolarClient(sim::Engine& engine, dpu::AliDpu& dpu, net::Nic& nic,
              sa::SegmentTable& segments, sa::QosTable& qos,
              SolarParams params, Rng rng);

  /// Guest-facing entry point (NVMe command arrives at the DPU).
  void submit_io(transport::IoRequest io, transport::IoCompleteFn done);

  const SolarStats& stats() const { return stats_; }
  std::uint64_t probes_sent() const { return probes_sent_; }
  SolarParams& params() { return params_; }
  PathSet& path_set(net::IpAddr peer) { return pathset(peer); }

  /// Order-independent aggregates over all peers' paths (the per-path map
  /// is unordered, so gauges must not depend on iteration order).
  struct PathAggregates {
    std::int64_t paths = 0;
    std::int64_t total_inflight = 0;
    std::int64_t avg_cwnd = 0;     ///< mean congestion window (blocks)
    std::int64_t avg_srtt_ns = 0;  ///< mean smoothed RTT
  };
  PathAggregates path_aggregates() const;

  /// Publishes transport counters and path gauges (labels: node=<name>).
  void register_metrics(obs::Registry& reg);

  /// Routes every DPU CPU dispatch through a tenant-aware scheduler
  /// (weighted fair queueing between guaranteed and best-effort tenants).
  /// Null (the default) submits straight to the pool — bit-identical to
  /// the pre-scheduler behavior.
  void set_cpu_scheduler(qos::CpuScheduler* sched) { sched_ = sched; }

 private:
  struct IoCtx;
  struct RpcCtx;

  struct BlockState {
    bool acked = false;     // write: transport-ACKed
    bool arrived = false;   // read: data landed
    bool request_acked = false;
    std::uint16_t port = 0;
    TimeNs sent_at = 0;
    sim::TimerId timer = 0;
    int retries = 0;
    /// Trace span of the current network attempt (obs; 0 = untraced).
    /// Timestamps for data-path stage spans live here rather than in
    /// lambda captures so the hot-path SmallFns stay within inline SBO.
    std::uint64_t span = 0;
    TimeNs stage_t0 = 0;
    TimeNs stage_t1 = 0;
  };

  PathSet& pathset(net::IpAddr peer);
  void start_io(std::shared_ptr<IoCtx> io);
  void start_rpc(const std::shared_ptr<IoCtx>& io, const sa::Extent& ext);
  void send_write_block(const std::shared_ptr<RpcCtx>& rpc,
                        std::uint16_t pkt_id, bool software_path);
  void send_read_request(const std::shared_ptr<RpcCtx>& rpc,
                         std::uint16_t pkt_id);
  void emit(const std::shared_ptr<RpcCtx>& rpc, std::uint16_t pkt_id,
            Frame frame, PathState& path);
  void drain_queue(net::IpAddr peer);
  void on_packet(net::Packet& pkt);
  void handle_ack(const Frame& f, const net::IntTrail& int_recs);
  void handle_probe_ack(net::IpAddr peer, const Frame& f);
  void schedule_probes(net::IpAddr peer);
  void handle_write_response(const Frame& f);
  void handle_read_response(const Frame& f, const net::IntTrail& int_recs);
  void on_block_timeout(std::uint64_t rpc_id, std::uint16_t pkt_id);
  void arm_response_timer(const std::shared_ptr<RpcCtx>& rpc);
  void maybe_complete_read(const std::shared_ptr<RpcCtx>& rpc);
  void complete_rpc(const std::shared_ptr<RpcCtx>& rpc,
                    transport::StorageStatus status);
  void finish_io(const std::shared_ptr<IoCtx>& io);
  void release_path(std::uint16_t port, net::IpAddr peer);
  /// DPU CPU dispatch point: through the tenant scheduler when attached,
  /// straight to the pool otherwise. `vd_id` classifies the tenant,
  /// `affinity` pins the core (the same key the bare pool hashes).
  void cpu_submit(std::uint64_t vd_id, std::uint64_t affinity, TimeNs cost,
                  sim::Callback done);
  /// Active tracer, or nullptr when observability is dark.
  obs::Tracer* trc() const;

  sim::Engine& engine_;
  dpu::AliDpu& dpu_;
  net::Nic& nic_;
  sa::SegmentTable& segments_;
  sa::QosTable& qos_;
  qos::CpuScheduler* sched_ = nullptr;
  SolarParams params_;
  Rng rng_;
  SolarStats stats_;
  std::unordered_map<net::IpAddr, std::unique_ptr<PathSet>> paths_;
  std::unordered_map<std::uint64_t, std::shared_ptr<RpcCtx>> rpcs_;
  /// Blocks waiting for path window, per peer.
  std::unordered_map<net::IpAddr,
                     std::deque<std::pair<std::uint64_t, std::uint16_t>>>
      sendq_;
  std::uint64_t next_rpc_seq_ = 1;
  int next_peer_index_ = 0;
  std::uint64_t probes_sent_ = 0;
};

}  // namespace repro::solar
