// Causal trace spans: a flight recorder for per-I/O stage timing.
//
// One I/O produces a tree of spans — guest NVMe submit → SA / DPU CPU →
// FPGA pipeline → internal PCIe → per-hop fabric traversal (folded from the
// HPCC INT trail each packet already carries) → block server → SSD. Each
// span is `{id, parent, name, t0, t1, pid, tid, args}` where `pid` is a
// simulated device (NIC/switch node id) and `tid` a core or port within it,
// matching the Chrome trace-event process/thread model so exports load
// straight into Perfetto.
//
// The recorder is a set of fixed-capacity rings fully allocated up front:
// recording a span is a couple of stores plus one wrapping index increment,
// with zero steady-state allocations. When full a ring overwrites its
// oldest records (flight-recorder semantics), counting the drops and the
// latest start time it overwrote. Span
// names and arg names must be string literals (static storage) — records
// keep the pointer only.
//
// Sharded runs call `set_shards(n)` before any span is recorded: each shard
// then writes its own ring (selected by the thread's shard context), so
// workers never contend, and `for_each` merges rings in (t0, id) order —
// a deterministic function of the simulation, not of the thread count.
// Single-shard tracers keep one ring and the exact legacy record order.
// Recording from shard s >= the configured ring count is a debug assert
// (the loud-failure ownership check for span writes).
//
// Disabled tracers hand out span id 0 and drop records after one
// predictable branch; id 0 also means "no parent", so call sites never
// special-case the disabled path.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/shard_context.h"

namespace repro::obs {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  const char* name = "";
  TimeNs t0 = 0;
  TimeNs t1 = 0;
  std::uint32_t pid = 0;  // simulated device (node id)
  std::uint32_t tid = 0;  // core / port within the device
  const char* arg_name = nullptr;
  std::uint64_t arg = 0;
  const char* arg2_name = nullptr;
  std::uint64_t arg2 = 0;
};

class Tracer {
 public:
  Tracer(bool enabled, std::size_t capacity)
      : enabled_(enabled && capacity > 0), capacity_(capacity) {
    rings_.resize(1);
    if (enabled_) rings_[0].ring.resize(capacity);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Splits the flight-recorder capacity into one ring per shard. Must be
  /// called before any span is recorded (the cluster builder does this
  /// right after attaching obs, before devices exist). Shard s > 0 tags
  /// its span ids with (s << 48); shard 0 keeps the legacy id sequence.
  void set_shards(int shards) {
    if (!enabled_ || shards <= 1) return;
    assert(total_recorded() == 0 &&
           "Tracer::set_shards after spans were recorded");
    const std::size_t per =
        std::max<std::size_t>(1, capacity_ / static_cast<std::size_t>(shards));
    rings_.clear();
    rings_.resize(static_cast<std::size_t>(shards));
    for (std::size_t s = 0; s < rings_.size(); ++s) {
      rings_[s].ring.resize(per);
      rings_[s].id_tag = s == 0 ? 0 : static_cast<std::uint64_t>(s) << 48;
    }
  }
  int shards() const { return static_cast<int>(rings_.size()); }

  /// Reserves a span id before its end time is known; the record is written
  /// later via `span_with_id`. Returns 0 when disabled.
  std::uint64_t begin() {
    if (!enabled_) return 0;
    Ring& r = home_ring();
    return r.id_tag | r.next_seq++;
  }

  /// Records a completed span and returns its id (0 when disabled).
  std::uint64_t span(const char* name, std::uint64_t parent, TimeNs t0,
                     TimeNs t1, std::uint32_t pid, std::uint32_t tid = 0,
                     const char* arg_name = nullptr, std::uint64_t arg = 0,
                     const char* arg2_name = nullptr, std::uint64_t arg2 = 0) {
    if (!enabled_) return 0;
    Ring& r = home_ring();
    return write(r, r.id_tag | r.next_seq++, name, parent, t0, t1, pid, tid,
                 arg_name, arg, arg2_name, arg2);
  }

  /// Records a span under an id previously reserved with `begin()`.
  void span_with_id(std::uint64_t id, const char* name, std::uint64_t parent,
                    TimeNs t0, TimeNs t1, std::uint32_t pid,
                    std::uint32_t tid = 0, const char* arg_name = nullptr,
                    std::uint64_t arg = 0, const char* arg2_name = nullptr,
                    std::uint64_t arg2 = 0) {
    if (!enabled_ || id == 0) return;
    write(home_ring(), id, name, parent, t0, t1, pid, tid, arg_name, arg,
          arg2_name, arg2);
  }

  /// Perfetto-visible display names, emitted as "M" metadata events.
  /// Registration happens at construction time (single-threaded, under the
  /// builder's shard scopes), never from workers.
  void set_process_name(std::uint32_t pid, std::string name) {
    if (enabled_) process_names_[pid] = std::move(name);
  }
  void set_thread_name(std::uint32_t pid, std::uint32_t tid,
                       std::string name) {
    if (enabled_) thread_names_[{pid, tid}] = std::move(name);
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const Ring& r : rings_) n += r.size();
    return n;
  }
  std::uint64_t total_recorded() const {
    std::uint64_t n = 0;
    for (const Ring& r : rings_) n += r.total;
    return n;
  }
  std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (const Ring& r : rings_) n += r.dropped();
    return n;
  }
  /// Latest `t0` among the records the rings overwrote (kNoneDropped when
  /// none were): every span starting after it is still retained.
  static constexpr TimeNs kNoneDropped = std::numeric_limits<TimeNs>::min();
  TimeNs latest_dropped_t0() const {
    TimeNs t = kNoneDropped;
    for (const Ring& r : rings_) t = std::max(t, r.dropped_t0);
    return t;
  }

  /// Visits retained records: single ring (legacy) oldest-first in record
  /// order; sharded rings merged by (t0, id) — deterministic regardless of
  /// how many threads executed the run.
  template <class F>
  void for_each(F&& f) const {
    if (rings_.size() == 1) {
      rings_[0].for_each_local(f);
      return;
    }
    std::vector<const SpanRecord*> all;
    all.reserve(size());
    for (const Ring& r : rings_) {
      r.for_each_local([&all](const SpanRecord& rec) { all.push_back(&rec); });
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const SpanRecord* a, const SpanRecord* b) {
                       return a->t0 != b->t0 ? a->t0 < b->t0 : a->id < b->id;
                     });
    for (const SpanRecord* rec : all) f(*rec);
  }

  /// Linear scan by id (test/export convenience, not a hot path).
  const SpanRecord* find(std::uint64_t id) const {
    const SpanRecord* out = nullptr;
    for_each([&](const SpanRecord& r) {
      if (r.id == id) out = &r;
    });
    return out;
  }

  const std::map<std::uint32_t, std::string>& process_names() const {
    return process_names_;
  }
  const std::map<std::pair<std::uint32_t, std::uint32_t>, std::string>&
  thread_names() const {
    return thread_names_;
  }

  void clear() {
    for (Ring& r : rings_) {
      r.total = 0;
      r.next_seq = 1;
      r.dropped_t0 = kNoneDropped;
    }
  }

 private:
  struct Ring {
    std::vector<SpanRecord> ring;
    std::uint64_t total = 0;
    std::uint64_t next_seq = 1;
    std::uint64_t id_tag = 0;
    TimeNs dropped_t0 = kNoneDropped;

    std::size_t size() const {
      return total < ring.size() ? static_cast<std::size_t>(total)
                                 : ring.size();
    }
    std::uint64_t dropped() const {
      return total < ring.size() ? 0 : total - ring.size();
    }
    template <class F>
    void for_each_local(F&& f) const {
      const std::size_t n = size();
      const std::size_t start =
          total < ring.size() ? 0
                              : static_cast<std::size_t>(total % ring.size());
      for (std::size_t i = 0; i < n; ++i) {
        f(ring[(start + i) % ring.size()]);
      }
    }
  };

  Ring& home_ring() {
    const std::size_t s = static_cast<std::size_t>(sim::current_shard());
    // The loud-failure ownership check: recording a span from a shard this
    // tracer was never configured for means a sharded cluster is sharing a
    // tracer with a single-shard one (or set_shards was skipped) — a silent
    // data race in release builds.
    assert(s < rings_.size() &&
           "span recorded from an unconfigured shard (missing "
           "Tracer::set_shards?)");
    return rings_[s < rings_.size() ? s : 0];
  }

  std::uint64_t write(Ring& r, std::uint64_t id, const char* name,
                      std::uint64_t parent, TimeNs t0, TimeNs t1,
                      std::uint32_t pid, std::uint32_t tid,
                      const char* arg_name, std::uint64_t arg,
                      const char* arg2_name, std::uint64_t arg2) {
    SpanRecord& rec =
        r.ring[static_cast<std::size_t>(r.total % r.ring.size())];
    if (r.total >= r.ring.size()) {
      r.dropped_t0 = std::max(r.dropped_t0, rec.t0);
    }
    ++r.total;
    rec.id = id;
    rec.parent = parent;
    rec.name = name;
    rec.t0 = t0;
    rec.t1 = t1;
    rec.pid = pid;
    rec.tid = tid;
    rec.arg_name = arg_name;
    rec.arg = arg;
    rec.arg2_name = arg2_name;
    rec.arg2 = arg2;
    return id;
  }

  bool enabled_;
  std::size_t capacity_;
  std::vector<Ring> rings_;
  std::map<std::uint32_t, std::string> process_names_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> thread_names_;
};

}  // namespace repro::obs
