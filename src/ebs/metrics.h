// Per-experiment metric collection: latency histograms, throughput and IOPS
// counters, and the I/O-hang detector used by Table 2 / Fig. 8 (an I/O with
// no response for >= 1 s) — plus `breakdown`, the one place the Fig. 6
// SA/FN/BN/SSD split is computed, from an I/O's trace spans.
#pragma once

#include <cstdint>
#include <string>

#include "common/histogram.h"
#include "common/units.h"
#include "obs/trace.h"
#include "transport/message.h"

namespace repro::ebs {

class MetricSink {
 public:
  /// Threshold above which an I/O counts as a "hang" (paper: one minute of
  /// no response marks a VM-visible hang; Table 2 counts >= 1 s).
  static constexpr TimeNs kHangThreshold = seconds(1);

  void record(const transport::IoRequest& io, const transport::IoResult& res,
              TimeNs issued_at);

  const Histogram& total() const { return total_; }
  const Histogram& reads() const { return read_total_; }
  const Histogram& writes() const { return write_total_; }

  std::uint64_t ios() const { return ios_; }
  std::uint64_t errors() const { return errors_; }
  std::uint64_t hangs() const { return hangs_; }
  std::uint64_t bytes() const { return bytes_; }

  double iops(TimeNs over) const {
    return over > 0 ? static_cast<double>(ios_) * 1e9 /
                          static_cast<double>(over)
                    : 0.0;
  }
  double throughput_gbps(TimeNs over) const {
    return over > 0 ? static_cast<double>(bytes_) * 8.0 /
                          static_cast<double>(over)
                    : 0.0;
  }
  double throughput_mbps(TimeNs over) const {  // MB/s
    return over > 0 ? static_cast<double>(bytes_) * 1e3 /
                          static_cast<double>(over)
                    : 0.0;
  }

  void clear();

 private:
  Histogram total_, read_total_, write_total_;
  std::uint64_t ios_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t hangs_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Fig. 6's split of one I/O's latency. QoS wait is in none of the four
/// components (the figure's caption excludes it).
struct Breakdown {
  TimeNs sa = 0;   ///< storage agent: SA cores, or the DPU for SOLAR
  TimeNs fn = 0;   ///< frontend network, transport stack included
  TimeNs bn = 0;   ///< backend network: the block server's stage
  TimeNs ssd = 0;  ///< SSD service inside it

  TimeNs total() const { return sa + fn + bn + ssd; }
};

/// The breakdown of the I/O whose root span is `root` (its `IoResult::span`),
/// derived from the spans `tracer` retains. FN, BN and SSD come from the
/// round trip that lands last, so the four add up to at most the I/O's wall
/// time. Throws std::runtime_error, never splits part of a tree, when the
/// I/O was not traced, its root is gone or the ring overwrote a span that
/// started during the I/O.
Breakdown breakdown(const obs::Tracer& tracer, std::uint64_t root);

}  // namespace repro::ebs
