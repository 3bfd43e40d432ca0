#include "chaos/fault_plan.h"

#include <iterator>

#include "obs/fields.h"

namespace repro::chaos {

namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};
constexpr KindName kKindNames[] = {
    {FaultKind::kLinkFail, "link_fail"},
    {FaultKind::kDeviceStop, "device_stop"},
    {FaultKind::kDeviceSilent, "device_silent"},
    {FaultKind::kBlackhole, "blackhole"},
    {FaultKind::kLoss, "loss"},
    {FaultKind::kCorrupt, "corrupt"},
    {FaultKind::kDuplicate, "duplicate"},
    {FaultKind::kReorder, "reorder"},
    {FaultKind::kSsdLatency, "ssd_latency"},
    {FaultKind::kSsdStall, "ssd_stall"},
    {FaultKind::kCpuStall, "cpu_stall"},
    {FaultKind::kPcieDegrade, "pcie_degrade"},
    {FaultKind::kFpgaPreCrcFlip, "fpga_pre_crc_flip"},
    {FaultKind::kFpgaPostCrcFlip, "fpga_post_crc_flip"},
    {FaultKind::kFpgaCrcEngine, "fpga_crc_engine"},
};

struct TargetName {
  TargetKind kind;
  const char* name;
};
constexpr TargetName kTargetNames[] = {
    {TargetKind::kComputeNic, "compute_nic"},
    {TargetKind::kStorageNic, "storage_nic"},
    {TargetKind::kComputeTor, "compute_tor"},
    {TargetKind::kStorageTor, "storage_tor"},
    {TargetKind::kComputeSpine, "compute_spine"},
    {TargetKind::kStorageSpine, "storage_spine"},
    {TargetKind::kCore, "core"},
    {TargetKind::kStorageSsd, "storage_ssd"},
    {TargetKind::kComputeCpu, "compute_cpu"},
    {TargetKind::kStorageCpu, "storage_cpu"},
    {TargetKind::kComputePcie, "compute_pcie"},
    {TargetKind::kComputeFpga, "compute_fpga"},
};

}  // namespace

const char* to_string(FaultKind k) {
  for (const auto& e : kKindNames) {
    if (e.kind == k) return e.name;
  }
  return "?";
}

const char* to_string(TargetKind k) {
  for (const auto& e : kTargetNames) {
    if (e.kind == k) return e.name;
  }
  return "?";
}

bool parse_fault_kind(const std::string& s, FaultKind* out) {
  for (const auto& e : kKindNames) {
    if (s == e.name) {
      *out = e.kind;
      return true;
    }
  }
  return false;
}

bool parse_target_kind(const std::string& s, TargetKind* out) {
  for (const auto& e : kTargetNames) {
    if (s == e.name) {
      *out = e.kind;
      return true;
    }
  }
  return false;
}

std::string FaultPlan::to_json() const { return obs::to_json(*this); }

bool plan_from_json(const std::string& text, FaultPlan* out,
                    std::string* err) {
  return obs::from_json(text, out, "plan", err);
}

// ---------------------------------------------------------------------------
// Seeded generator.

namespace {

/// Switch-role targets with at least one instance in `shape`.
std::vector<TargetKind> switch_roles(const TopologyShape& shape) {
  std::vector<TargetKind> roles;
  if (shape.compute_tors > 0) roles.push_back(TargetKind::kComputeTor);
  if (shape.storage_tors > 0) roles.push_back(TargetKind::kStorageTor);
  if (shape.compute_spines > 0) roles.push_back(TargetKind::kComputeSpine);
  if (shape.storage_spines > 0) roles.push_back(TargetKind::kStorageSpine);
  if (shape.cores > 0) roles.push_back(TargetKind::kCore);
  return roles;
}

int role_count(const TopologyShape& shape, TargetKind k) {
  switch (k) {
    case TargetKind::kComputeNic: return shape.compute_nodes;
    case TargetKind::kStorageNic: return shape.storage_nodes;
    case TargetKind::kComputeTor: return shape.compute_tors;
    case TargetKind::kStorageTor: return shape.storage_tors;
    case TargetKind::kComputeSpine: return shape.compute_spines;
    case TargetKind::kStorageSpine: return shape.storage_spines;
    case TargetKind::kCore: return shape.cores;
    case TargetKind::kStorageSsd: return shape.storage_nodes;
    case TargetKind::kComputeCpu: return shape.compute_nodes;
    case TargetKind::kStorageCpu: return shape.storage_nodes;
    case TargetKind::kComputePcie: return shape.compute_nodes;
    case TargetKind::kComputeFpga: return shape.compute_nodes;
  }
  return 0;
}

}  // namespace

FaultPlan generate_plan(Rng& rng, const GeneratorConfig& cfg,
                        const TopologyShape& shape) {
  FaultPlan plan;
  const std::vector<TargetKind> switches = switch_roles(shape);
  const int span = cfg.max_events - cfg.min_events;
  const int n = cfg.min_events +
                (span > 0 ? static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(span + 1)))
                          : 0);
  for (int i = 0; i < n; ++i) {
    FaultEvent e;
    e.at = static_cast<TimeNs>(
        rng.next_below(static_cast<std::uint64_t>(cfg.window)));
    e.duration = cfg.min_duration +
                 static_cast<TimeNs>(rng.next_below(static_cast<std::uint64_t>(
                     cfg.max_duration - cfg.min_duration + 1)));

    // Draw a kind. FPGA faults only where an FPGA data path exists.
    static constexpr FaultKind kNetKinds[] = {
        FaultKind::kLinkFail,  FaultKind::kDeviceSilent,
        FaultKind::kBlackhole, FaultKind::kLoss,
        FaultKind::kCorrupt,   FaultKind::kDuplicate,
        FaultKind::kReorder,   FaultKind::kDeviceStop,
    };
    static constexpr FaultKind kHostKinds[] = {
        FaultKind::kSsdLatency, FaultKind::kSsdStall,
        FaultKind::kCpuStall,   FaultKind::kPcieDegrade,
    };
    const bool host_side = rng.next_below(4) == 0;  // 25% host, 75% fabric
    if (host_side) {
      static constexpr FaultKind kFpgaKinds[] = {
          FaultKind::kFpgaPreCrcFlip,
          FaultKind::kFpgaPostCrcFlip,
          FaultKind::kFpgaCrcEngine,
      };
      const auto pick = rng.next_below(shape.has_fpga ? 7 : 4);
      e.kind = pick < 4 ? kHostKinds[pick] : kFpgaKinds[pick - 4];
    } else {
      e.kind = kNetKinds[rng.next_below(std::size(kNetKinds))];
    }

    // Pick the target by kind (hang-safe plans keep misbehaviour off the
    // NICs: a NIC has no sibling to fail over to).
    switch (e.kind) {
      case FaultKind::kLinkFail: {
        if (cfg.hang_safe || switches.empty()) {
          // Only uplink 0 of a host: the second ToR of the pair survives.
          e.target.kind = rng.next_below(2) == 0 ? TargetKind::kComputeNic
                                                 : TargetKind::kStorageNic;
          e.target.sub = 0;
        } else {
          e.target.kind = switches[rng.next_below(switches.size())];
          e.target.sub = 0;
        }
        break;
      }
      case FaultKind::kDeviceStop:
      case FaultKind::kDeviceSilent:
      case FaultKind::kBlackhole:
      case FaultKind::kLoss:
      case FaultKind::kCorrupt:
      case FaultKind::kDuplicate:
      case FaultKind::kReorder: {
        if (!switches.empty()) {
          e.target.kind = switches[rng.next_below(switches.size())];
        } else {
          e.target.kind = TargetKind::kStorageNic;
        }
        break;
      }
      case FaultKind::kSsdLatency:
      case FaultKind::kSsdStall:
        e.target.kind = TargetKind::kStorageSsd;
        e.target.sub = -1;
        break;
      case FaultKind::kCpuStall:
        e.target.kind = rng.next_below(2) == 0 ? TargetKind::kComputeCpu
                                               : TargetKind::kStorageCpu;
        break;
      case FaultKind::kPcieDegrade:
        e.target.kind = TargetKind::kComputePcie;
        break;
      case FaultKind::kFpgaPreCrcFlip:
      case FaultKind::kFpgaPostCrcFlip:
      case FaultKind::kFpgaCrcEngine:
        e.target.kind = TargetKind::kComputeFpga;
        break;
    }
    const int count = role_count(shape, e.target.kind);
    e.target.index =
        count > 0
            ? static_cast<int>(rng.next_below(static_cast<std::uint64_t>(count)))
            : 0;

    // Magnitude per kind.
    switch (e.kind) {
      case FaultKind::kBlackhole:
        e.magnitude = 0.25 + 0.5 * rng.uniform01();
        break;
      case FaultKind::kLoss:
        e.magnitude = 0.05 + 0.45 * rng.uniform01();
        break;
      case FaultKind::kCorrupt:
      case FaultKind::kDuplicate:
        e.magnitude = 0.02 + 0.18 * rng.uniform01();
        break;
      case FaultKind::kReorder:
        e.magnitude = 0.05 + 0.25 * rng.uniform01();
        e.param = us(50) + static_cast<TimeNs>(rng.next_below(
                               static_cast<std::uint64_t>(us(200))));
        break;
      case FaultKind::kSsdLatency:
        e.magnitude = 2.0 + 18.0 * rng.uniform01();
        break;
      case FaultKind::kPcieDegrade:
        e.magnitude = 2.0 + 6.0 * rng.uniform01();
        break;
      case FaultKind::kFpgaPreCrcFlip:
      case FaultKind::kFpgaPostCrcFlip:
      case FaultKind::kFpgaCrcEngine:
        e.magnitude = 1e-4 + 1e-3 * rng.uniform01();
        break;
      default:
        break;
    }

    if (cfg.hang_safe) {
      // Latency-heavy faults briefly: an SSD stall or CPU stall feeds
      // straight into honest end-to-end latency, and the hang oracle must
      // only ever fire on *stuck* I/O, not on slow-but-moving I/O.
      if (e.kind == FaultKind::kSsdStall || e.kind == FaultKind::kCpuStall ||
          e.kind == FaultKind::kSsdLatency) {
        if (e.duration > ms(300)) e.duration = ms(300);
      }
    }
    if (cfg.stretch_duration > 0 && e.duration < cfg.stretch_duration &&
        e.kind != FaultKind::kSsdStall && e.kind != FaultKind::kCpuStall &&
        e.kind != FaultKind::kSsdLatency) {
      e.duration = cfg.stretch_duration;
    }
    plan.events.push_back(e);
  }
  return plan;
}

}  // namespace repro::chaos
