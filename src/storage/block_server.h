// Block server: the storage-cluster endpoint of FN RPCs.
//
// On WRITE it verifies the per-block CRC, stores the block, and replicates
// to three chunk servers over the backend network (BN). BN is RDMA in
// production (§3.1); we model it as a latency distribution rather than a
// second full fabric — Fig. 6 only needs its contribution to the breakdown.
// On READ it fetches from a chunk server (SSD NAND path).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "storage/segment_store.h"
#include "storage/ssd.h"
#include "transport/message.h"

namespace repro::storage {

struct BackendParams {
  TimeNs rtt_median = us(14);  ///< BN RDMA round trip incl. replica stack
  double rtt_sigma = 0.35;
  int replicas = 3;
};

struct BlockServerParams {
  TimeNs per_request_cpu = us(2);  ///< request parse + commit bookkeeping
  TimeNs per_block_cpu = ns(600);  ///< per-block handling
  bool store_payload = false;
  SsdParams ssd;
  BackendParams backend;
};

class BlockServer {
 public:
  BlockServer(sim::Engine& engine, BlockServerParams params, Rng rng);

  /// Transport-facing handler (bind to RpcServer::set_handler).
  void handle(transport::StorageRequest request,
              std::function<void(transport::StorageResponse)> reply);

  /// Per-block entry points for SOLAR's one-block-one-packet path: every
  /// arriving packet is applied independently, no request reassembly.
  using BlockWriteFn =
      std::function<void(transport::StorageStatus, TimeNs bn, TimeNs ssd)>;
  using BlockReadFn = std::function<void(
      transport::StorageStatus, transport::DataBlock, TimeNs bn, TimeNs ssd)>;

  /// `verify_crc=false` skips the payload check — SOLAR's server does its
  /// own verification (and ciphertext blocks carry a plaintext CRC that
  /// cannot be checked here, §4.5 / Figure 12 stage order).
  void write_block(std::uint64_t segment_id, std::uint64_t offset,
                   transport::DataBlock block, BlockWriteFn done,
                   bool verify_crc = true);
  void read_block(std::uint64_t segment_id, std::uint64_t offset,
                  std::uint32_t len, BlockReadFn done);

  SegmentStore& store() { return store_; }
  const BlockServerParams& params() const { return params_; }
  std::uint64_t crc_failures() const { return crc_failures_; }

  /// Queued-but-unserved SSD work across all replicas (sampler gauge).
  TimeNs ssd_queue_backlog() const {
    TimeNs total = 0;
    for (const auto& s : replica_ssds_) total += s->queue_backlog();
    return total;
  }
  /// Completed SSD ops across all replicas.
  std::uint64_t ssd_ops() const {
    std::uint64_t total = 0;
    for (const auto& s : replica_ssds_) total += s->writes() + s->reads();
    return total;
  }

  /// Replica SSD access for fault injection (latency spikes, stalls).
  int num_replica_ssds() const {
    return static_cast<int>(replica_ssds_.size());
  }
  SsdModel& replica_ssd(int i) {
    return *replica_ssds_[static_cast<std::size_t>(i)];
  }

 private:
  void handle_write(transport::StorageRequest request,
                    std::function<void(transport::StorageResponse)> reply);
  void handle_read(transport::StorageRequest request,
                   std::function<void(transport::StorageResponse)> reply);
  TimeNs backend_delay();

  sim::Engine& engine_;
  BlockServerParams params_;
  Rng rng_;
  SegmentStore store_;
  // One SSD per replica chunk server (the primary's plus two peers).
  std::vector<std::unique_ptr<SsdModel>> replica_ssds_;
  std::uint64_t crc_failures_ = 0;
};

}  // namespace repro::storage
