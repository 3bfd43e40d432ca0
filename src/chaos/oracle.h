// Invariant oracles checked during and after a chaos run.
//
//  * exactly-once  — every submitted I/O completes exactly once; a second
//    completion or a completion for an unknown id is a violation.
//  * durability    — every acked write is readable with a matching CRC.
//    The board keeps a shadow model of committed 4 KB cells; concurrent
//    overlapping writes taint a cell permanently (committed contents are
//    ambiguous) and epoch counters void read checks that raced a write.
//  * recovery SLO  — once every fault is repaired, no I/O stays
//    outstanding (or completes) later than `recovery_slo` past the repair.
//  * hang (opt-in) — Table 2's SOLAR claim: no I/O ever exceeds the 1 s
//    hang threshold. Armed only for SOLAR-family stacks under hang-safe
//    plans; on software stacks hangs are the *expected* Table 2 signal.
//  * conservation  — at quiesce the engine has no pending timers and the
//    packet pool has no outstanding packets (nothing leaked).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "transport/message.h"

namespace repro::sim {
class Engine;
}
namespace repro::net {
class Network;
}

namespace repro::chaos {

struct OracleConfig {
  /// Post-repair completion deadline. Sized to absorb kernel-TCP RTO
  /// backoff (min_rto 200 ms doubling across a ~1.5 s outage) with room
  /// to spare: honest-but-slow recovery is not a violation, stuck I/O is.
  TimeNs recovery_slo = seconds(8);
  bool check_crc = true;
  /// Arm the hang oracle (SOLAR-family stacks under hang-safe plans only).
  bool hang_oracle = false;
  TimeNs hang_threshold = seconds(1);
};

struct Violation {
  std::string oracle;  ///< "exactly_once", "durability", "slo", "hang", ...
  std::string detail;
  TimeNs at = 0;
};

class OracleBoard {
 public:
  explicit OracleBoard(OracleConfig cfg) : cfg_(cfg) {}

  /// Wrap a workload's submit path: call on_submit before handing the I/O
  /// down, and on_complete from inside the completion callback.
  std::uint64_t on_submit(const transport::IoRequest& io, TimeNs now);
  void on_complete(std::uint64_t id, const transport::IoResult& res,
                   TimeNs now);

  /// Call once after Injector::repair_all: completions later than
  /// `t + recovery_slo` then count as SLO violations.
  void set_repair_time(TimeNs t) { repair_time_ = t; }

  /// End-of-run checks; `last_repair` is Injector::last_repair_time().
  void check_quiesce(const sim::Engine& engine, const net::Network& net,
                     TimeNs last_repair);

  /// The stuck-I/O half of `check_quiesce` alone. The chaos harness keeps
  /// one board per compute node and calls this on each, then does the global
  /// conservation checks (engine timers, pooled packets) once per fleet.
  void check_outstanding(TimeNs now, TimeNs last_repair);

  /// Stable committed cells suitable for a read-back probe: untainted,
  /// with the epoch captured so a racing write voids the sample.
  struct StableCell {
    std::uint64_t vd_id = 0;
    std::uint64_t lba = 0;
    std::uint32_t crc = 0;
  };
  std::vector<StableCell> stable_cells(std::size_t max) const;
  /// Verify one read-back result against the shadow (call at probe
  /// completion). Mismatch or error is a durability violation.
  void check_readback(const StableCell& cell, const transport::IoResult& res,
                      TimeNs now);

  std::uint64_t submitted() const { return next_id_ - 1; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t errors() const { return errors_; }
  std::uint64_t hangs() const { return hangs_; }
  std::uint64_t outstanding() const { return outstanding_.size(); }
  std::uint64_t crc_checks() const { return crc_checks_; }

  const std::vector<Violation>& violations() const { return violations_; }
  bool ok() const { return violations_.empty(); }
  void add_violation(std::string oracle, std::string detail, TimeNs at);

 private:
  struct CellKey {
    std::uint64_t vd_id;
    std::uint64_t lba;
    bool operator==(const CellKey&) const = default;
  };
  struct CellKeyHash {
    std::size_t operator()(const CellKey& k) const {
      std::uint64_t h = k.vd_id * 0x9E3779B97F4A7C15ull;
      h ^= k.lba + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h * 0xFF51AFD7ED558CCDull);
    }
  };
  struct ShadowCell {
    std::uint32_t crc = 0;
    std::uint64_t epoch = 0;   ///< bumps on every commit
    int writers_inflight = 0;  ///< > 1 at any instant => tainted
    bool committed = false;
    bool tainted = false;
  };
  struct PendingIo {
    transport::OpType op;
    TimeNs issued_at = 0;
    // Write: per-cell CRCs captured at submit. Read: per-cell epochs.
    std::vector<std::uint64_t> lbas;
    std::vector<std::uint32_t> crcs;
    std::vector<std::uint64_t> epochs;
    std::uint64_t vd_id = 0;
  };

  OracleConfig cfg_;
  TimeNs repair_time_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t completed_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t hangs_ = 0;
  std::uint64_t crc_checks_ = 0;
  std::unordered_map<std::uint64_t, PendingIo> outstanding_;
  std::unordered_map<std::uint64_t, bool> finished_;  ///< id -> seen once
  std::unordered_map<CellKey, ShadowCell, CellKeyHash> shadow_;
  std::vector<Violation> violations_;
};

}  // namespace repro::chaos
