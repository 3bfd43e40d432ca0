#include "obs/registry.h"

#include "sim/shard_context.h"

namespace repro::obs {

namespace {
// One cache line per shard so concurrent shards' dark-counter bumps never
// false-share; thread_local so concurrent *worlds* (sim_fuzz --jobs) never
// share at all. A handle constructed under ShardScope(s) binds the
// constructing thread's slot s, which only shard s's worker ever bumps —
// and the epoch barrier sequences those bumps across epochs.
struct alignas(64) ScratchSlot {
  std::uint64_t v = 0;
};
constexpr int kMaxScratchShards = 64;
thread_local ScratchSlot g_scratch[kMaxScratchShards];
}  // namespace

std::uint64_t* Counter::scratch_slot() {
  return &g_scratch[sim::current_shard() & (kMaxScratchShards - 1)].v;
}

std::string metric_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  key.push_back('|');
  for (const Label& l : labels) {
    key += l.key;
    key.push_back('=');
    key += l.value;
    key.push_back(',');
  }
  return key;
}

Counter Registry::counter(const std::string& name, const Labels& labels,
                          bool sampled) {
  if (!enabled_) return Counter(Counter::scratch_slot());
  const std::string key = metric_key(name, labels);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Re-opening an owned counter hands back the same slot; re-opening an
    // exposed one would alias foreign storage, so those get the scratch.
    const MetricEntry& e = entries_[it->second];
    if (e.kind == MetricKind::kCounter && e.counter != nullptr) {
      return Counter(const_cast<std::uint64_t*>(e.counter));
    }
    return Counter(Counter::scratch_slot());
  }
  slots_.push_back(0);
  std::uint64_t* slot = &slots_.back();
  owned_slots_.push_back(slot);
  MetricEntry e;
  e.name = name;
  e.labels = labels;
  e.kind = MetricKind::kCounter;
  e.counter = slot;
  e.sampled = sampled;
  index_.emplace(key, entries_.size());
  entries_.push_back(std::move(e));
  return Counter(slot);
}

Histogram* Registry::histogram(const std::string& name, const Labels& labels) {
  if (!enabled_) return &scratch_hist_;
  const std::string key = metric_key(name, labels);
  auto it = index_.find(key);
  if (it != index_.end()) {
    const MetricEntry& e = entries_[it->second];
    if (e.kind == MetricKind::kHistogram && e.hist != nullptr) {
      return const_cast<Histogram*>(e.hist);
    }
    return &scratch_hist_;
  }
  hists_.emplace_back();
  Histogram* h = &hists_.back();
  owned_hists_.push_back(h);
  MetricEntry e;
  e.name = name;
  e.labels = labels;
  e.kind = MetricKind::kHistogram;
  e.hist = h;
  index_.emplace(key, entries_.size());
  entries_.push_back(std::move(e));
  return h;
}

void Registry::expose_counter(const std::string& name, const Labels& labels,
                              const std::uint64_t* v, bool sampled) {
  if (!enabled_ || v == nullptr) return;
  const std::string key = metric_key(name, labels);
  if (index_.count(key)) return;
  MetricEntry e;
  e.name = name;
  e.labels = labels;
  e.kind = MetricKind::kCounter;
  e.counter = v;
  e.sampled = sampled;
  index_.emplace(key, entries_.size());
  entries_.push_back(std::move(e));
}

void Registry::expose_gauge(const std::string& name, const Labels& labels,
                            GaugeFn fn, bool sampled) {
  if (!enabled_ || !fn) return;
  const std::string key = metric_key(name, labels);
  if (index_.count(key)) return;
  MetricEntry e;
  e.name = name;
  e.labels = labels;
  e.kind = MetricKind::kGauge;
  e.gauge = std::move(fn);
  e.sampled = sampled;
  index_.emplace(key, entries_.size());
  entries_.push_back(std::move(e));
}

void Registry::reset_all() {
  for (std::uint64_t* slot : owned_slots_) *slot = 0;
  for (Histogram* h : owned_hists_) h->clear();
  for (Resettable* r : resettables_) r->reset_counters();
}

std::int64_t Registry::value_of(const MetricEntry& e) const {
  switch (e.kind) {
    case MetricKind::kCounter:
      return static_cast<std::int64_t>(*e.counter);
    case MetricKind::kGauge:
      return e.gauge();
    case MetricKind::kHistogram:
      return static_cast<std::int64_t>(e.hist->count());
  }
  return 0;
}

const MetricEntry* Registry::find(const std::string& name,
                                  const Labels& labels) const {
  auto it = index_.find(metric_key(name, labels));
  if (it == index_.end()) return nullptr;
  return &entries_[it->second];
}

std::uint64_t Registry::counter_value(const std::string& name,
                                      const Labels& labels) const {
  const MetricEntry* e = find(name, labels);
  if (e == nullptr || e->kind != MetricKind::kCounter) return 0;
  return *e->counter;
}

}  // namespace repro::obs
