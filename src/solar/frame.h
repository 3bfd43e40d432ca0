// SOLAR frames as carried by the simulated fabric (Figures 12 & 13).
//
// A SOLAR packet is: [UDP (modelled by the fabric's FlowKey; the source
// port is the path id, §4.5)] [RPC HDR] [EBS HDR] [payload = exactly one
// 4 KB data block] — the "one-block-one-packet" fusion. READ/WRITE
// requests, per-packet ACKs, and path probes reuse the same RPC header with
// empty or partial EBS sections. The simulator carries the typed headers;
// only their wire sizes enter queue and link accounting.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.h"
#include "net/packet.h"
#include "transport/message.h"

namespace repro::solar {

/// EBS data blocks are 4 KB to match the SSD sector size (§2.2) and fit a
/// jumbo frame with headers (§4.4 uses 4 KB rather than 8 KB, §4.8).
inline constexpr std::uint32_t kBlockSize = 4096;

enum class RpcMsgType : std::uint8_t {
  kWriteRequest = 1,   ///< carries one data block
  kWriteResponse = 2,  ///< per-RPC completion from the block server
  kReadRequest = 3,    ///< asks for blocks; no payload
  kReadResponse = 4,   ///< carries one data block
  kAck = 5,            ///< per-packet transport ACK (CC + loss detection)
  kProbe = 6,          ///< path liveness/RTT probe
};

struct RpcHeader {
  std::uint64_t rpc_id = 0;
  std::uint16_t pkt_id = 0;     ///< block index within the RPC
  std::uint16_t pkt_count = 1;  ///< total blocks in the RPC
  RpcMsgType msg_type = RpcMsgType::kWriteRequest;
  std::uint8_t flags = 0;
  std::uint16_t path_id = 0;  ///< echo of the UDP source port / path

  static constexpr std::size_t kWireSize = 8 + 2 + 2 + 1 + 1 + 2;
};

enum class EbsOp : std::uint8_t { kWrite = 1, kRead = 2 };

struct EbsHeader {
  std::uint64_t vd_id = 0;       ///< virtual disk
  std::uint64_t segment_id = 0;  ///< physical segment on the block server
  std::uint64_t lba = 0;         ///< byte offset of the block within the VD
  std::uint32_t block_len = kBlockSize;
  std::uint32_t payload_crc = 0;  ///< crc32_raw of the data block
  EbsOp op = EbsOp::kWrite;
  std::uint8_t version = 1;
  std::uint16_t qos_class = 0;

  static constexpr std::size_t kWireSize = 8 * 3 + 4 + 4 + 1 + 1 + 2;
};

struct Frame {
  RpcHeader rpc;
  EbsHeader ebs;
  transport::DataBlock block;  ///< payload for data-bearing frames

  TimeNs ts = 0;       ///< sender timestamp
  TimeNs echo_ts = 0;  ///< ACK/response: timestamp of the trigger packet

  // Response-only metadata.
  transport::StorageStatus status = transport::StorageStatus::kOk;
  TimeNs server_bn = 0;
  TimeNs server_ssd = 0;

  /// ACKs return the INT trail the data packet collected on its way out,
  /// so the sender can run HPCC-style congestion control per path (§4.8).
  net::IntTrail int_echo;
};

/// Wire size of a frame (headers + payload), for queue/link accounting.
inline std::uint32_t frame_wire_bytes(const Frame& f) {
  std::uint32_t sz = 42 /*eth+ip+udp*/ +
                     static_cast<std::uint32_t>(RpcHeader::kWireSize +
                                                EbsHeader::kWireSize);
  const auto type = f.rpc.msg_type;
  if (type == RpcMsgType::kWriteRequest ||
      type == RpcMsgType::kReadResponse) {
    sz += f.block.len;
  }
  return sz;
}

}  // namespace repro::solar
