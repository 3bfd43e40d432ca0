// SOLAR server: the block-server side of one-block-one-packet.
//
// Every arriving packet is processed independently — there is no receive
// buffer, no reassembly, no connection. A WRITE packet is ACKed for the
// transport (loss detection + INT echo for CC), CRC-verified, stored and
// replicated on its own; the only per-RPC state is a tiny countdown used
// to emit the storage-level response once every block has persisted, and
// it is garbage-collected moments later (§4.4 "few maintained states").
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "net/nic.h"
#include "sim/cpu.h"
#include "sim/engine.h"
#include "solar/frame.h"
#include "storage/block_server.h"

namespace repro::obs {
class Tracer;
}

namespace repro::solar {

struct SolarServerParams {
  TimeNs cpu_per_packet = ns(350);
  TimeNs cpu_per_block_crc = ns(900);  ///< software verify of real payloads
  TimeNs rpc_state_gc = ms(200);  ///< retire completed-RPC records after
};

class SolarServer {
 public:
  SolarServer(sim::Engine& engine, net::Nic& nic, sim::CpuPool& cpu,
              storage::BlockServer& block_server, SolarServerParams params,
              Rng rng);

  std::uint64_t packets_rx() const { return packets_rx_; }
  std::uint64_t crc_rejects() const { return crc_rejects_; }
  std::uint64_t duplicate_blocks() const { return duplicate_blocks_; }

 private:
  enum class BlockProgress : std::uint8_t { kNone, kInFlight, kDone };

  struct WriteRpc {
    std::uint32_t expected = 0;
    std::uint32_t done_count = 0;
    std::vector<BlockProgress> progress;
    bool response_sent = false;
    transport::StorageStatus status = transport::StorageStatus::kOk;
    net::FlowKey reply_flow;  ///< reversed flow of the last block seen
    /// Trace span of the last block seen; stamped onto the response so the
    /// return path folds into the client's span tree (0 = untraced).
    std::uint64_t reply_span = 0;
  };

  void on_packet(net::Packet& pkt);
  void handle_write(const Frame& f, const net::Packet& pkt);
  void handle_read(const Frame& f, const net::Packet& pkt);
  void send_ack(const Frame& f, const net::Packet& pkt);
  void send_write_response(std::uint64_t rpc_id, const WriteRpc& rpc);
  void gc(TimeNs now);
  static net::FlowKey reversed(const net::FlowKey& f);
  /// Active tracer, or nullptr when observability is dark.
  obs::Tracer* trc() const;

  sim::Engine& engine_;
  net::Nic& nic_;
  sim::CpuPool& cpu_;
  storage::BlockServer& block_server_;
  SolarServerParams params_;
  Rng rng_;
  std::unordered_map<std::uint64_t, WriteRpc> writes_;
  std::deque<std::pair<TimeNs, std::uint64_t>> gc_queue_;
  std::uint64_t packets_rx_ = 0;
  std::uint64_t crc_rejects_ = 0;
  std::uint64_t duplicate_blocks_ = 0;
};

}  // namespace repro::solar
