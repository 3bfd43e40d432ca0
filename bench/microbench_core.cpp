// Core microbenchmarks (google-benchmark): the building blocks whose speed
// bounds how much simulated traffic the experiment harnesses can push —
// event engine, packet pool, fabric hot path, flow hashing, histogram
// recording, and the block cipher.
//
// Two things distinguish this from a stock benchmark file:
//  * A global allocation counter (operator new/delete overrides below)
//    lets every benchmark report `allocs_per_event` / `allocs_per_op`.
//    The engine and packet hot paths must report 0 in steady state.
//  * `baseline::Engine` is a self-contained copy of the pre-timer-wheel
//    scheduler (std::priority_queue + std::function + tombstone cancels),
//    kept here so BM_Baseline* vs BM_Engine* is an apples-to-apples
//    comparison inside one binary. The perf gate: the wheel must sustain
//    at least 2x the baseline's events/sec on the churn workload.
//
// Results are printed to the console and mirrored to BENCH_core.json.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "gbench_main.h"
#include "net/nic.h"
#include "net/packet.h"
#include "net/topology.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sa/crypto.h"
#include "sim/engine.h"

// ---------------------------------------------------------------------------
// Allocation counter: every heap allocation in the process bumps this.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace repro {

// ---------------------------------------------------------------------------
// The pre-overhaul scheduler, verbatim in behavior: binary heap ordered by
// (time, seq), std::function callbacks, cancellation via a tombstone set
// consulted at pop time.
// ---------------------------------------------------------------------------

namespace baseline {

using TimerId = std::uint64_t;

class Engine {
 public:
  TimeNs now() const { return now_; }

  TimerId schedule_after(TimeNs delay, std::function<void()> fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  TimerId schedule_at(TimeNs t, std::function<void()> fn) {
    if (t < now_) t = now_;
    const TimerId id = next_id_++;
    queue_.push(Event{t, next_seq_++, id, std::move(fn)});
    return id;
  }

  bool cancel(TimerId id) {
    if (id == 0 || id >= next_id_) return false;
    return canceled_.insert(id).second;
  }

  bool step() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (auto it = canceled_.find(ev.id); it != canceled_.end()) {
        canceled_.erase(it);
        continue;
      }
      now_ = ev.time;
      ev.fn();
      return true;
    }
    return false;
  }

  void run() {
    while (step()) {
    }
  }

 private:
  struct Event {
    TimeNs time;
    std::uint64_t seq;
    TimerId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<TimerId> canceled_;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  TimerId next_id_ = 1;
};

}  // namespace baseline

namespace {

// ---------------------------------------------------------------------------
// Scheduler churn: the simulator's real event mix. Each round schedules a
// batch of timers at scattered delays with a 24-byte capture (the typical
// size of a transmit/retransmit closure), cancels a third of them (every
// data packet arms a retransmission timer that an ACK then cancels), and
// drains. Works identically on both engines.
// ---------------------------------------------------------------------------

constexpr int kChurnBatch = 1024;

template <typename EngineT>
void churn_round(EngineT& eng, std::vector<std::uint64_t>& ids,
                 std::uint64_t& sink, std::uint64_t& lcg) {
  ids.clear();
  for (int i = 0; i < kChurnBatch; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const TimeNs d = static_cast<TimeNs>((lcg >> 33) % 100000);
    std::uint64_t* s = &sink;
    const std::uint64_t x = lcg;
    ids.push_back(
        eng.schedule_after(d, [s, x, d] { *s += x ^ static_cast<std::uint64_t>(d); }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) eng.cancel(ids[i]);
  eng.run();
}

template <typename EngineT>
void engine_timer_churn(benchmark::State& state) {
  EngineT eng;
  std::vector<std::uint64_t> ids;
  ids.reserve(kChurnBatch);
  std::uint64_t sink = 0;
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  // Warm the pools / heap vector so we measure steady state.
  for (int i = 0; i < 4; ++i) churn_round(eng, ids, sink, lcg);

  // Steady-state allocations are counted between the end of the first
  // timed round and the end of the last one, so the benchmark framework's
  // own loop-entry/exit allocations don't pollute the number.
  std::uint64_t rounds = 0;
  std::uint64_t allocs_start = 0;
  std::uint64_t allocs_end = 0;
  for (auto _ : state) {
    churn_round(eng, ids, sink, lcg);
    allocs_end = alloc_count();
    if (++rounds == 1) allocs_start = allocs_end;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds * kChurnBatch));
  const double steady = static_cast<double>((rounds - 1) * kChurnBatch);
  state.counters["allocs_per_event"] = benchmark::Counter(
      rounds > 1 ? static_cast<double>(allocs_end - allocs_start) / steady
                 : 0.0);
}

void BM_EngineTimerChurn(benchmark::State& state) {
  engine_timer_churn<sim::Engine>(state);
}
BENCHMARK(BM_EngineTimerChurn);

void BM_BaselineEngineTimerChurn(benchmark::State& state) {
  engine_timer_churn<baseline::Engine>(state);
}
BENCHMARK(BM_BaselineEngineTimerChurn);

// Pure schedule+drain (no cancels), same shape the seed repo measured.
template <typename EngineT>
void engine_schedule_run(benchmark::State& state) {
  for (auto _ : state) {
    EngineT eng;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      eng.schedule_after(i, [&sink] { ++sink; });
    }
    eng.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}

void BM_EngineScheduleRun(benchmark::State& state) {
  engine_schedule_run<sim::Engine>(state);
}
BENCHMARK(BM_EngineScheduleRun);

void BM_BaselineEngineScheduleRun(benchmark::State& state) {
  engine_schedule_run<baseline::Engine>(state);
}
BENCHMARK(BM_BaselineEngineScheduleRun);

// ---------------------------------------------------------------------------
// Packet pool: acquire, attach a pooled payload, release. Steady state must
// not allocate.
// ---------------------------------------------------------------------------

struct BenchFrame {
  std::uint64_t words[8] = {};
};

void BM_PacketPoolAcquireRelease(benchmark::State& state) {
  auto* pool = new net::PacketPool;
  {
    net::PacketPtr warm = pool->acquire();
    net::emplace_app<BenchFrame>(*warm);
  }
  std::uint64_t ops = 0;
  std::uint64_t allocs_start = 0;
  std::uint64_t allocs_end = 0;
  for (auto _ : state) {
    net::PacketPtr p = pool->acquire();
    p->size_bytes = 4096;
    net::emplace_app<BenchFrame>(*p);
    benchmark::DoNotOptimize(p.get());
    allocs_end = alloc_count();
    if (++ops == 1) allocs_start = allocs_end;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["allocs_per_op"] = benchmark::Counter(
      ops > 1 ? static_cast<double>(allocs_end - allocs_start) /
                    static_cast<double>(ops - 1)
              : 0.0);
  pool->retire();
}
BENCHMARK(BM_PacketPoolAcquireRelease);

// ---------------------------------------------------------------------------
// Fabric hot path: NIC -> switch -> NIC ping-pong through the full egress
// queue / serialization / propagation machinery. Reports simulator
// events/sec and the steady-state allocation rate (must be 0).
// ---------------------------------------------------------------------------

void BM_FabricPingPong(benchmark::State& state) {
  constexpr int kHops = 512;
  sim::Engine eng;
  net::Network net(eng, net::NetworkParams{}, 1);
  auto t = net::build_two_hosts(net, gbps(100), ns(500));
  int hops_left = 0;
  auto echo = [&](net::Nic* self, net::Packet& pkt) {
    if (--hops_left <= 0) return;
    net::PacketPtr r = self->make_packet();
    r->flow = net::FlowKey{pkt.flow.dst_ip, pkt.flow.src_ip,
                           pkt.flow.dst_port, pkt.flow.src_port,
                           pkt.flow.proto};
    r->size_bytes = 4096;
    net::emplace_app<BenchFrame>(*r);
    self->send_packet(std::move(r));
  };
  t.a->set_deliver([&](net::Packet& pkt) { echo(t.a, pkt); });
  t.b->set_deliver([&](net::Packet& pkt) { echo(t.b, pkt); });
  auto kick = [&] {
    hops_left = kHops;
    eng.at(eng.now(), [&] {
      net::PacketPtr p = t.a->make_packet();
      p->flow = net::FlowKey{t.a->ip(), t.b->ip(), 7, 9, net::Proto::kUdp};
      p->size_bytes = 4096;
      net::emplace_app<BenchFrame>(*p);
      t.a->send_packet(std::move(p));
    });
    eng.run();
  };
  kick();  // warm pools

  const std::uint64_t events_before = eng.executed();
  std::uint64_t pkts = 0;
  std::uint64_t allocs_start = 0;
  std::uint64_t allocs_end = 0;
  std::uint64_t events_start = 0;
  for (auto _ : state) {
    kick();
    pkts += kHops;
    allocs_end = alloc_count();
    if (pkts == kHops) {
      allocs_start = allocs_end;
      events_start = eng.executed();
    }
  }
  const double events =
      static_cast<double>(eng.executed() - events_before);
  const double steady_events =
      static_cast<double>(eng.executed() - events_start);
  state.SetItemsProcessed(static_cast<std::int64_t>(pkts));
  state.counters["events_per_sec"] =
      benchmark::Counter(events, benchmark::Counter::kIsRate);
  state.counters["allocs_per_event"] = benchmark::Counter(
      steady_events > 0
          ? static_cast<double>(allocs_end - allocs_start) / steady_events
          : 0.0);
}
BENCHMARK(BM_FabricPingPong);

// ---------------------------------------------------------------------------
// Unchanged building-block benchmarks.
// ---------------------------------------------------------------------------

void BM_FlowHash(benchmark::State& state) {
  net::FlowKey flow{1, 2, 3, 4, net::Proto::kUdp};
  std::uint64_t salt = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::flow_hash(flow, salt++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowHash);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (auto _ : state) {
    h.record(static_cast<std::int64_t>(rng.next_below(1'000'000)));
  }
  benchmark::DoNotOptimize(h.percentile(0.99));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_BlockCipher4K(benchmark::State& state) {
  sa::BlockCipher cipher(0xFEED);
  std::vector<std::uint8_t> data(4096, 0xAB);
  for (auto _ : state) {
    cipher.apply(1, 4096, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_BlockCipher4K);

// ---------------------------------------------------------------------------
// Observability overhead guard. The registry's contract is that counter
// bumps and span records are allocation-free in steady state and that a
// disabled registry costs the same single add; these benchmarks are the
// gate (allocs_per_op must report 0).
// ---------------------------------------------------------------------------

void obs_counter_inc(benchmark::State& state, bool enabled) {
  obs::Registry reg(enabled);
  obs::Counter c = reg.counter("bench.counter");
  std::uint64_t ops = 0;
  std::uint64_t allocs_start = 0;
  std::uint64_t allocs_end = 0;
  for (auto _ : state) {
    c.inc();
    allocs_end = alloc_count();
    if (++ops == 1) allocs_start = allocs_end;
  }
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["allocs_per_op"] = benchmark::Counter(
      ops > 1 ? static_cast<double>(allocs_end - allocs_start) /
                    static_cast<double>(ops - 1)
              : 0.0);
}

void BM_ObsCounterInc(benchmark::State& state) {
  obs_counter_inc(state, /*enabled=*/true);
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsCounterIncDisabled(benchmark::State& state) {
  obs_counter_inc(state, /*enabled=*/false);
}
BENCHMARK(BM_ObsCounterIncDisabled);

void BM_ObsSpanRecord(benchmark::State& state) {
  obs::Tracer trc(/*enabled=*/true, /*capacity=*/1 << 12);
  TimeNs t = 0;
  std::uint64_t ops = 0;
  std::uint64_t allocs_start = 0;
  std::uint64_t allocs_end = 0;
  for (auto _ : state) {
    const std::uint64_t parent = trc.begin();
    trc.span("bench.span", parent, t, t + 100, 1, 0, "arg", ops);
    t += 100;
    allocs_end = alloc_count();
    if (++ops == 1) allocs_start = allocs_end;
  }
  benchmark::DoNotOptimize(trc.total_recorded());
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["allocs_per_op"] = benchmark::Counter(
      ops > 1 ? static_cast<double>(allocs_end - allocs_start) /
                    static_cast<double>(ops - 1)
              : 0.0);
}
BENCHMARK(BM_ObsSpanRecord);

}  // namespace
}  // namespace repro

// Console for humans, BENCH_core.json for the driver's benchmark gate.
// The JSON mirror is on by default; an explicit --benchmark_out wins.
int main(int argc, char** argv) {
  return repro::bench::run_gbench_main(argc, argv, "BENCH_core.json");
}
