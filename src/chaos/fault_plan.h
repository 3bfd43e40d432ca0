// FaultPlan DSL: declarative, timed, composable fault schedules.
//
// A plan is a list of events, each naming a fault kind, a target resource
// in the cluster (by role + index, never by pointer, so plans serialize and
// replay across processes), an onset time relative to injection, an
// optional duration (0 = held until `Injector::repair_all`), and a
// magnitude/parameter. Plans round-trip through JSON so a fuzz failure can
// be shipped as a replayable repro file, and a seeded generator draws
// random plans for the `sim_fuzz` driver — the FoundationDB-style
// search over the fault x workload space the paper's Table 2 / Fig. 8 /
// Fig. 11 scenarios hand-pick points from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace repro::chaos {

/// Every fault the simulation can express, across every resource layer.
enum class FaultKind {
  kLinkFail,        ///< fail-stop one uplink (carrier loss, detectable)
  kDeviceStop,      ///< fail-stop a whole device (all links down)
  kDeviceSilent,    ///< silent death: forwards nothing, carrier stays up
  kBlackhole,       ///< fraction of flows silently dropped (magnitude)
  kLoss,            ///< iid packet drop probability (magnitude)
  kCorrupt,         ///< wire bit errors, dropped at the NIC FCS (magnitude)
  kDuplicate,       ///< iid duplicate delivery (magnitude)
  kReorder,         ///< delay-a-subset reordering (magnitude + param delay)
  kSsdLatency,      ///< SSD service-time spike (magnitude = multiplier)
  kSsdStall,        ///< SSD serves nothing for the duration (GC pause)
  kCpuStall,        ///< stalls all cores of a pool for the duration
  kPcieDegrade,     ///< internal-PCIe bandwidth / magnitude
  kFpgaPreCrcFlip,  ///< bit flips before the FPGA CRC engine (magnitude)
  kFpgaPostCrcFlip, ///< bit flips after CRC — only the §4.5 software
                    ///< aggregation check can catch these (magnitude)
  kFpgaCrcEngine,   ///< the CRC engine itself miscomputes (magnitude)
};

/// Where a fault lands. `index` selects among same-role resources (taken
/// modulo the actual count at injection time); `port`/`sub` selects a port
/// (kLinkFail) or a replica SSD (kSsd*; -1 = all replicas).
enum class TargetKind {
  kComputeNic,
  kStorageNic,
  kComputeTor,
  kStorageTor,
  kComputeSpine,
  kStorageSpine,
  kCore,
  kStorageSsd,
  kComputeCpu,   ///< the compute node's data-path CPU pool
  kStorageCpu,   ///< the storage node's server CPU pool
  kComputePcie,  ///< the DPU's internal PCIe channel
  kComputeFpga,  ///< the DPU's FPGA pipeline fault knobs
};

struct FaultTarget {
  TargetKind kind = TargetKind::kStorageTor;
  int index = 0;
  int sub = -1;
};

struct FaultEvent {
  TimeNs at = 0;        ///< onset, relative to Injector::arm
  TimeNs duration = 0;  ///< 0 = held until repair_all
  FaultKind kind = FaultKind::kLoss;
  FaultTarget target;
  double magnitude = 0.0;  ///< rate / fraction / multiplier per kind
  TimeNs param = 0;        ///< kReorder: extra delivery delay
};

struct FaultPlan {
  std::string name;
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  std::string to_json() const;
};

const char* to_string(FaultKind k);
const char* to_string(TargetKind k);
bool parse_fault_kind(const std::string& s, FaultKind* out);
bool parse_target_kind(const std::string& s, TargetKind* out);

// JSON field lists (see obs/fields.h): each key is named once, in output
// order, and the same list writes, reads and strict-checks the plan.
template <class V>
void fields(V& v, FaultTarget& t) {
  v.required("kind", t.kind, parse_target_kind);
  v.field("index", t.index);
  v.field("sub", t.sub);
}

template <class V>
void fields(V& v, FaultEvent& e) {
  v.required("at_ns", e.at);
  v.field("duration_ns", e.duration);
  v.required("kind", e.kind, parse_fault_kind);
  v.required("target", e.target);
  v.field("magnitude", e.magnitude);
  v.field("param_ns", e.param);
}

template <class V>
void fields(V& v, FaultPlan& p) {
  v.field("name", p.name);
  v.required("events", p.events);
}

/// Parses a plan previously produced by `FaultPlan::to_json` (or written by
/// hand). Unknown or duplicate keys, ill-typed values (a fractional
/// `at_ns`, a string `index`) and unknown kind names are refused. Returns
/// false on malformed input; `err` names the key path (e.g.
/// "plan.events[0].duration_ns").
bool plan_from_json(const std::string& text, FaultPlan* out,
                    std::string* err = nullptr);

/// Resource counts the generator draws targets from. Derive one from a
/// live cluster with `Injector::shape()` or fill it by hand.
struct TopologyShape {
  int compute_nodes = 0;
  int storage_nodes = 0;
  int compute_tors = 0;
  int storage_tors = 0;
  int compute_spines = 0;
  int storage_spines = 0;
  int cores = 0;
  int replica_ssds = 0;  ///< per storage node
  bool has_fpga = false; ///< stack runs the FPGA data path
};

struct GeneratorConfig {
  int min_events = 1;
  int max_events = 4;
  TimeNs window = ms(800);        ///< onsets drawn from [0, window)
  TimeNs min_duration = ms(50);
  TimeNs max_duration = ms(600);
  /// Constrain the draw so a healthy SOLAR stack is guaranteed hang-free
  /// (Table 2's claim), letting the harness arm the solar-hang oracle:
  /// silent/blackhole/loss faults hit switches only (never a NIC, which
  /// has no path diversity), link-fails take only uplink 0 (the pair
  /// survives), and latency-heavy SSD/CPU faults are duration-capped so
  /// honest latency stays well under the 1 s hang threshold.
  bool hang_safe = true;
  /// Planted-bug hunting: stretch fault durations past the hang threshold
  /// so a stack that cannot fail over is forced over the line.
  TimeNs stretch_duration = 0;  ///< 0 = off; else every duration >= this
};

/// Draws a seeded random plan. Identical (rng state, cfg, shape) inputs
/// produce identical plans — the fuzzer's reproducibility contract.
FaultPlan generate_plan(Rng& rng, const GeneratorConfig& cfg,
                        const TopologyShape& shape);

}  // namespace repro::chaos
