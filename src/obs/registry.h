// Metric registry: named, label-tagged counters, gauges and histograms.
//
// Hot-path design: a `Counter` is nothing but a pointer to a u64 slot owned
// by the registry. `inc()` is a single predictable add — no branch, no
// indirection through the registry, no allocation. When the registry is
// disabled every handle points at one shared scratch slot, so instrumented
// code is identical either way and the disabled cost is the same single add
// to a dead cache line.
//
// Components that already keep their own counters (`net::Nic`,
// `net::PortStats`, ...) are published by address via `expose_counter`;
// derived values (queue depth, utilization, cwnd) are published as pull
// gauges that the sampler reads at sample instants. Nothing in this file
// ever schedules engine events — registration and reads are pure
// observation.
//
// Iteration order over `entries()` is registration order, which is
// deterministic for a deterministic construction order; exporters rely on
// this so artifact files are stable across identical runs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "obs/resettable.h"

namespace repro::obs {

struct Label {
  std::string key;
  std::string value;
};
using Labels = std::vector<Label>;

/// Convenience constructor for the common one-label case.
inline Labels label(std::string key, std::string value) {
  return {{std::move(key), std::move(value)}};
}

/// Canonical "name|k=v,k=v" key used for dedup and lookups.
std::string metric_key(const std::string& name, const Labels& labels);

/// Pointer-to-slot counter handle. Default-constructed (and disabled)
/// handles target a scratch slot chosen by the *constructing* thread's
/// shard context: slots are thread-local and padded per shard, so dark
/// counters bumped concurrently — by sharded workers (components are built
/// under their home shard's ShardScope, and shard s only ever runs on one
/// thread per epoch) or by independent sim_fuzz --jobs sweeps (each job
/// constructs its world on its own thread) — never share a cache line and
/// never race.
class Counter {
 public:
  Counter() : v_(scratch_slot()) {}

  void inc(std::uint64_t n = 1) { *v_ += n; }
  std::uint64_t value() const { return *v_; }

 private:
  friend class Registry;
  explicit Counter(std::uint64_t* v) : v_(v) {}

  static std::uint64_t* scratch_slot();
  std::uint64_t* v_;
};

using GaugeFn = std::function<std::int64_t()>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

struct MetricEntry {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  const std::uint64_t* counter = nullptr;  // kCounter
  GaugeFn gauge;                           // kGauge
  const Histogram* hist = nullptr;         // kHistogram
  bool sampled = false;  // include in the time-series sampler
};

class Registry {
 public:
  explicit Registry(bool enabled = true) : enabled_(enabled) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  bool enabled() const { return enabled_; }

  /// Creates (or re-opens) a registry-owned counter. Slots live in a deque
  /// so handles stay valid as the registry grows. Disabled registries hand
  /// out the scratch handle and record nothing.
  Counter counter(const std::string& name, const Labels& labels = {},
                  bool sampled = false);

  /// Creates (or re-opens) a registry-owned histogram. Disabled registries
  /// return a scratch histogram that is never exported.
  Histogram* histogram(const std::string& name, const Labels& labels = {});

  /// Publishes an existing component-owned counter by address. The
  /// pointee must outlive the registry's export calls.
  void expose_counter(const std::string& name, const Labels& labels,
                      const std::uint64_t* v, bool sampled = false);

  /// Publishes a derived value; `fn` is called at sample/export instants
  /// only, never on the simulation hot path.
  void expose_gauge(const std::string& name, const Labels& labels, GaugeFn fn,
                    bool sampled = true);

  /// Registers a component for `reset_all()`. Works even when disabled:
  /// phase-split resets are experiment mechanics, not observation.
  void add_resettable(Resettable* r) { resettables_.push_back(r); }

  /// Zeroes owned counters/histograms and every registered Resettable.
  void reset_all();

  const std::vector<MetricEntry>& entries() const { return entries_; }

  /// Current numeric value of an entry (histograms report their count).
  std::int64_t value_of(const MetricEntry& e) const;

  /// Lookup helpers (export/test paths; linear in label count only).
  const MetricEntry* find(const std::string& name,
                          const Labels& labels = {}) const;
  std::uint64_t counter_value(const std::string& name,
                              const Labels& labels = {}) const;

 private:
  bool enabled_;
  std::deque<std::uint64_t> slots_;      // owned counter storage
  std::deque<Histogram> hists_;          // owned histogram storage
  std::vector<MetricEntry> entries_;     // registration order
  std::unordered_map<std::string, std::size_t> index_;  // key -> entry
  std::vector<Resettable*> resettables_;
  std::vector<std::uint64_t*> owned_slots_;
  std::vector<Histogram*> owned_hists_;
  Histogram scratch_hist_;
};

}  // namespace repro::obs
