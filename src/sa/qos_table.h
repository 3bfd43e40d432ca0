// QoS Table: per-VD admission control by IOPS and bandwidth (§2.2, and the
// QoS match-action stage of the SOLAR pipeline in Figures 12/13).
//
// Fig. 6's caption notes that policy-based queueing delay (QoS) is excluded
// from the latency breakdown; callers therefore receive the admission time
// separately and report it as IoResult::qos_wait_ns.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/token_bucket.h"
#include "common/units.h"

namespace repro::sa {

struct QosSpec {
  double iops_limit = 1e9;       ///< I/O operations per second
  double bandwidth_limit = 1e12; ///< bytes per second
  double burst_ios = 256;
  double burst_bytes = 16.0 * 1024 * 1024;
};

/// JSON field list (a ScenarioSpec VD's "qos" object; see obs/fields.h).
template <class V>
void fields(V& v, QosSpec& q) {
  v.field("iops_limit", q.iops_limit);
  v.field("bandwidth_limit", q.bandwidth_limit);
  v.field("burst_ios", q.burst_ios);
  v.field("burst_bytes", q.burst_bytes);
}

class QosTable {
 public:
  void set(std::uint64_t vd_id, const QosSpec& spec);
  bool has(std::uint64_t vd_id) const { return entries_.contains(vd_id); }

  struct Admission {
    bool admitted = false;
    TimeNs admit_at = 0;  ///< when the I/O may proceed (>= now)
  };

  /// Admits one I/O of `bytes` at time `now`. If tokens are short, returns
  /// the earliest time both buckets can cover it (tokens are consumed
  /// up-front, so the caller just delays until admit_at — matching the
  /// paper's "admission control ... to enforce bandwidth constraints").
  /// Unknown VDs are admitted immediately (no policy configured).
  Admission admit(std::uint64_t vd_id, std::uint32_t bytes, TimeNs now);

  /// Non-consuming probe: the wait `admit()` would impose on this I/O at
  /// `now` (0 = immediate). The admission layer's rejection decision reads
  /// this so tokens are only ever consumed by the stack's real admit.
  TimeNs peek(std::uint64_t vd_id, std::uint32_t bytes, TimeNs now) const;

  /// Returns the tokens an admitted I/O consumed when the I/O is dropped
  /// before doing any work (early rejection, out-of-range): without this a
  /// rejected burst double-penalizes the tenant — once by the rejection,
  /// once by the burned budget.
  void refund(std::uint64_t vd_id, std::uint32_t bytes);

  std::uint64_t throttled() const { return throttled_; }
  std::uint64_t refunded() const { return refunded_; }

 private:
  struct Entry {
    TokenBucket iops;
    TokenBucket bytes;
  };
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t throttled_ = 0;
  std::uint64_t refunded_ = 0;
};

}  // namespace repro::sa
