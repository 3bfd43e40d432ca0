// Storage-level messages exchanged between the compute side (SA) and the
// block servers, and the guest-visible I/O request and result.
//
// Payload handling: a DataBlock may carry real bytes (integrity and
// correctness tests, Fig. 11 fault campaigns) or be a *sized placeholder*
// (data.empty() but len > 0) for high-rate throughput benches where
// carrying 4 KB of real bytes per simulated packet would only burn host
// memory without changing any measured quantity.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"
#include "net/packet.h"

namespace repro::transport {

enum class OpType : std::uint8_t { kWrite = 1, kRead = 2 };

struct DataBlock {
  std::uint64_t lba = 0;  ///< byte address within the VD
  std::uint32_t len = 0;  ///< block length in bytes (usually 4096)
  std::vector<std::uint8_t> data;  ///< empty => sized placeholder
  std::uint32_t crc = 0;           ///< crc32_raw of data (when real)

  bool has_payload() const { return !data.empty(); }
};

/// One RPC against a single block server (an I/O may split into several if
/// it crosses 2 MB segment boundaries — §4.5 "Block splits the I/O").
struct StorageRequest {
  std::uint64_t rpc_id = 0;
  OpType op = OpType::kWrite;
  std::uint64_t vd_id = 0;
  std::uint64_t segment_id = 0;
  std::uint64_t segment_offset = 0;  ///< byte offset within the segment
  std::uint32_t len = 0;             ///< total bytes
  std::vector<DataBlock> blocks;     ///< write payload; empty for reads
  bool encrypted = false;

  /// Wire size of the request message (headers + payload).
  std::uint64_t wire_bytes() const {
    std::uint64_t sz = 64;  // rpc + ebs headers, framing
    for (const auto& b : blocks) sz += b.len;
    return sz;
  }
};

enum class StorageStatus : std::uint8_t {
  kOk = 0,
  kCrcMismatch = 1,
  kOutOfRange = 2,
  kRejected = 3,
  kTimeout = 4,
};

struct StorageResponse {
  std::uint64_t rpc_id = 0;
  StorageStatus status = StorageStatus::kOk;
  std::vector<DataBlock> blocks;  ///< read payload; empty for writes
  // The server stage's split (of the replica that finished last, so the
  // two add up to the stage's duration).
  TimeNs server_bn_ns = 0;        ///< backend-network span at the server
  TimeNs server_ssd_ns = 0;       ///< chunk/SSD span at the server

  std::uint64_t wire_bytes() const {
    std::uint64_t sz = 64;
    for (const auto& b : blocks) sz += b.len;
    return sz;
  }
};

/// Guest-visible I/O request against a virtual disk (what the NVMe command
/// carries into the data path).
struct IoRequest {
  std::uint64_t vd_id = 0;
  OpType op = OpType::kWrite;
  std::uint64_t offset = 0;  ///< bytes within the VD
  std::uint32_t len = 0;     ///< bytes
  std::vector<DataBlock> payload;  ///< for writes; block-granular
  TimeNs issued_at = 0;
  /// Background maintenance traffic (EC rebuild, scrub): scheduled
  /// best-effort by QoS regardless of the VD's tenant class, and never
  /// eligible for the guaranteed-floor admission bypass.
  bool background = false;
};

struct IoResult {
  StorageStatus status = StorageStatus::kOk;
  /// Admission (QoS) delay before the I/O started; Fig. 6's caption keeps
  /// it out of the latency breakdown.
  TimeNs qos_wait_ns = 0;
  /// Root trace span of the I/O (0 when dark): `ebs::breakdown` derives the
  /// Fig. 6 components from its span tree. Always 0 for an I/O striped by
  /// EC, whose inner I/Os each have a tree of their own.
  std::uint64_t span = 0;
  TimeNs completed_at = 0;
  std::vector<DataBlock> read_data;
};

using IoCompleteFn = std::function<void(IoResult)>;

/// Splits a byte range into kBlock-sized DataBlock placeholders.
std::vector<DataBlock> make_placeholder_blocks(std::uint64_t offset,
                                               std::uint32_t len,
                                               std::uint32_t block_size);

}  // namespace repro::transport
