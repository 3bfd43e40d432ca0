#include "ebs/metrics.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace repro::ebs {

void MetricSink::record(const transport::IoRequest& io,
                        const transport::IoResult& res, TimeNs issued_at) {
  ++ios_;
  bytes_ += io.len;
  if (res.status != transport::StorageStatus::kOk) ++errors_;
  // Latency excludes QoS queueing (Fig. 6 caption) but is wall time
  // otherwise.
  const TimeNs latency = res.completed_at - issued_at - res.qos_wait_ns;
  if (res.completed_at - issued_at >= kHangThreshold) ++hangs_;
  total_.record(latency);
  (io.op == transport::OpType::kRead ? read_total_ : write_total_)
      .record(latency);
}

void MetricSink::clear() {
  total_.clear();
  read_total_.clear();
  write_total_.clear();
  ios_ = errors_ = hangs_ = bytes_ = 0;
}

namespace {

using obs::SpanRecord;
using Spans = std::vector<const SpanRecord*>;  ///< sorted by parent

TimeNs dur(const SpanRecord& s) { return s.t1 - s.t0; }
bool is(const SpanRecord& s, std::string_view prefix) {
  return std::string_view(s.name).starts_with(prefix);
}
bool by_parent(const SpanRecord* a, const SpanRecord* b) {
  return a->parent < b->parent;
}

/// Calls `f` on each child of span `id`, and on all descendants if `deep`.
template <class F>
void visit(const Spans& spans, std::uint64_t id, bool deep, F&& f) {
  SpanRecord key;
  key.parent = id;
  auto [it, end] =
      std::equal_range(spans.begin(), spans.end(), &key, by_parent);
  for (; it != end; ++it) {
    f(**it);
    if (deep) visit(spans, (*it)->id, true, f);
  }
}

/// The backend and SSD times of the last bs.* below span `id` to finish:
/// the server stage its reply waited for.
std::pair<TimeNs, TimeNs> server(const Spans& spans, std::uint64_t id) {
  const SpanRecord* last = nullptr;
  visit(spans, id, true, [&](const SpanRecord& s) {
    if (is(s, "bs.") && (last == nullptr || s.t1 > last->t1)) last = &s;
  });
  if (last == nullptr) return {0, 0};
  TimeNs ssd = 0;
  visit(spans, last->id, false, [&](const SpanRecord& s) {
    if (is(s, "ssd.")) ssd = dur(s);
  });
  return {dur(*last), ssd};
}

}  // namespace

Breakdown breakdown(const obs::Tracer& tracer, std::uint64_t root) {
  const SpanRecord* io = root == 0 ? nullptr : tracer.find(root);
  if (io == nullptr || tracer.latest_dropped_t0() >= io->t0) {
    throw std::runtime_error(
        "ebs::breakdown(span " + std::to_string(root) + "): " +
        (io == nullptr ? "no root span retained (was the I/O traced?)"
                       : "the trace ring wrapped past the I/O's first span"));
  }
  Spans spans;  // no span of an I/O starts before the I/O does
  tracer.for_each([&](const SpanRecord& s) {
    if (s.t0 >= io->t0 && s.parent != 0) spans.push_back(&s);
  });
  std::stable_sort(spans.begin(), spans.end(), by_parent);

  // The round trip that lands last is the I/O's critical path: FN, BN and
  // SSD all come from it (BN and SSD from its last server stage, FN the
  // rest of its time), so no two components overlap.
  Breakdown b;
  TimeNs critical = -1;
  auto round_trip = [&](const SpanRecord& s, TimeNs wall, TimeNs landed) {
    if (landed <= critical) return;
    critical = landed;
    std::tie(b.bn, b.ssd) = server(spans, s.id);
    b.fn = wall - b.bn - b.ssd;
  };
  // Kernel TCP, LUNA, RDMA: the agent's CPU before the RPCs and after the
  // last response (sa.cpu, sa.post) is the SA; each rpc.* is one frontend
  // round trip around the block server's bs.* > ssd.*.
  bool sa_stack = false;
  visit(spans, root, false, [&](const SpanRecord& s) {
    if (is(s, "sa.")) {
      sa_stack = true;
      b.sa += dur(s);
    }
  });
  if (sa_stack) {
    visit(spans, root, false, [&](const SpanRecord& s) {
      if (is(s, "rpc.")) round_trip(s, dur(s), s.t1);
    });
    return b;
  }
  // SOLAR: the DPU holds the I/O from admission until its first block
  // leaves (blk.net* start) and from its last network arrival (a write's
  // ACKs and response, a read block reaching the NIC, a timeout) until
  // completion. A round trip is a write RPC, from its first transmit to
  // its response, or a read block, whose blk.net ends at NIC arrival
  // (blk.rx, the landing after it, is the DPU's). Duplicate and
  // read-request ACKs have no span; without faults neither arrives last.
  const bool read = std::string_view(io->name) == "io.read";
  TimeNs admitted = io->t0, first_tx = io->t1, last_rx = io->t0;
  visit(spans, root, false, [&](const SpanRecord& rpc) {
    if (is(rpc, "qos.wait")) admitted = rpc.t1;
    TimeNs rpc_tx = io->t1;
    const SpanRecord* resp = nullptr;
    visit(spans, rpc.id, false, [&](const SpanRecord& s) {
      const std::string_view n = s.name;
      if (is(s, "blk.net")) {  // and blk.net.timeout
        rpc_tx = std::min(rpc_tx, s.t0);
        last_rx = std::max(last_rx, s.t1);
        if (read && n == "blk.net") round_trip(s, dur(s), s.t1);
      } else if (n == "blk.rx") {  // also a block the CRC check refused
        last_rx = std::max(last_rx, s.t0);
      } else if (n == "resp.net") {
        resp = &s;
        last_rx = std::max(last_rx, s.t1);
      }
    });
    first_tx = std::min(first_tx, rpc_tx);
    if (resp != nullptr) round_trip(rpc, resp->t1 - rpc_tx, resp->t1);
  });
  // With no network event at all, the whole admitted time is the DPU's.
  first_tx = std::min(first_tx, last_rx);
  b.sa = (first_tx - admitted) + std::max<TimeNs>(0, io->t1 - last_rx);
  return b;
}

}  // namespace repro::ebs
