#include "chaos/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "chaos/ec_oracle.h"
#include "chaos/injector.h"
#include "obs/obs.h"
#include "workload/fio.h"

namespace repro::chaos {

using transport::IoCompleteFn;
using transport::IoRequest;
using transport::IoResult;
using transport::OpType;

std::string RunReport::signature() const {
  std::ostringstream os;
  os << "executed=" << executed << ",end=" << end_time
     << ",done=" << ios_completed << ",err=" << errors << ",hang=" << hangs
     << ",crc=" << crc_checks << ",viol=" << violations.size();
  return os.str();
}

bool hang_oracle_applicable(ebs::StackKind stack, const FaultPlan& plan) {
  if (!stack::solar_family(stack)) {
    return false;  // on software stacks hangs are the Table 2 *signal*
  }
  auto is_switch = [](TargetKind k) {
    switch (k) {
      case TargetKind::kComputeTor:
      case TargetKind::kStorageTor:
      case TargetKind::kComputeSpine:
      case TargetKind::kStorageSpine:
      case TargetKind::kCore:
        return true;
      default:
        return false;
    }
  };
  int outage_events = 0;  // faults that can dead-end a whole ECMP tier
  for (const FaultEvent& e : plan.events) {
    switch (e.kind) {
      case FaultKind::kDeviceStop:
      case FaultKind::kDeviceSilent:
        // Even SOLAR cannot route around *every* device of a tier being
        // dead at once; allow at most one such event, on a switch, bounded.
        if (!is_switch(e.target.kind)) return false;
        if (e.duration <= 0 || e.duration > ms(700)) return false;
        if (++outage_events > 1) return false;
        break;
      case FaultKind::kBlackhole:
      case FaultKind::kLoss:
      case FaultKind::kCorrupt:
      case FaultKind::kDuplicate:
      case FaultKind::kReorder:
        // Probabilistic faults must sit where path diversity can dodge
        // them; a NIC has no sibling.
        if (!is_switch(e.target.kind)) return false;
        break;
      case FaultKind::kLinkFail:
        if (e.target.sub != 0) return false;  // keep the pair's second leg
        break;
      case FaultKind::kSsdLatency:
      case FaultKind::kSsdStall:
      case FaultKind::kCpuStall:
        // These feed straight into honest latency: bound them so slow
        // never masquerades as stuck.
        if (e.duration <= 0 || e.duration > ms(400)) return false;
        break;
      case FaultKind::kPcieDegrade:
      case FaultKind::kFpgaPreCrcFlip:
      case FaultKind::kFpgaPostCrcFlip:
      case FaultKind::kFpgaCrcEngine:
        break;
    }
  }
  return true;
}

ebs::ScenarioSpec default_harness_spec() {
  ebs::ScenarioSpec spec;
  spec.name = "chaos";
  spec.compute_nodes = 2;
  spec.storage_nodes = 4;
  spec.servers_per_rack = 2;
  spec.stack = ebs::StackKind::kSolar;
  spec.seed = 1;
  spec.store_payload = true;  // durability oracle needs bytes
  spec.vd_size_bytes = 1ull << 30;
  spec.workload.block_size = 8192;
  spec.workload.iodepth = 4;
  spec.workload.read_fraction = 0.3;
  spec.workload.real_payload = true;
  spec.workload.max_ios = 400;  // closed loop must not swamp the run
  spec.workload.poisson_iops = 1500.0;  // per compute node
  return spec;
}

namespace {

/// Storage-server IPs unreachable at `now` under `plan` (armed at
/// `armed_at`): fail-stop and silent-death NIC faults still in their
/// window. This is the ground-truth down set the EC audit measures
/// against — derived from the plan, not from probe state, so the oracle
/// never trusts the subsystem it is checking.
std::set<net::IpAddr> storage_down_at(ebs::Cluster& cluster,
                                      const FaultPlan& plan, TimeNs armed_at,
                                      TimeNs now) {
  std::set<net::IpAddr> down;
  const int n = cluster.num_storage();
  if (n == 0) return down;
  for (const FaultEvent& e : plan.events) {
    if (e.kind != FaultKind::kDeviceStop && e.kind != FaultKind::kDeviceSilent) {
      continue;
    }
    if (e.target.kind != TargetKind::kStorageNic) continue;
    const TimeNs start = armed_at + e.at;
    if (start > now) continue;
    if (e.duration > 0 && start + e.duration <= now) continue;
    down.insert(cluster.storage(e.target.index % n).nic().ip());
  }
  return down;
}

/// Runs the EC durability audit and files its findings on `board`.
void audit_ec(ebs::Cluster& cluster, const std::set<net::IpAddr>& down,
              TimeNs now, OracleBoard& board) {
  for (const Violation& v : audit_ec_durability(cluster, down, now)) {
    board.add_violation(v.oracle, v.detail, v.at);
  }
}

/// True when every compute node's maintenance agent has drained (no
/// rebuild backlog, repairs or stalls) — the precondition for the
/// post-repair audit with an empty down set.
bool maintenance_idle(ebs::Cluster& cluster) {
  for (int i = 0; i < cluster.num_compute(); ++i) {
    const ec::MaintenanceAgent* agent = cluster.compute(i).maintenance();
    if (agent != nullptr && !agent->idle()) return false;
  }
  return true;
}

}  // namespace

/// One lifecycle on either engine. Oracle bookkeeping is split one board per
/// compute node: each node's workload drives only its own VD, so a board's
/// submit/complete hooks always run on the node's home shard and boards
/// never cross shards.
RunReport run_chaos(const HarnessConfig& cfg) {
  const ebs::ScenarioSpec& spec = cfg.spec;
  if (!spec.vds.empty() &&
      spec.vds.size() != static_cast<std::size_t>(spec.compute_nodes)) {
    // Each compute node drives exactly one VD; any other count would leave
    // VDs idle or index past the list.
    std::fprintf(stderr,
                 "run_chaos: spec.vds has %zu entries for %d compute nodes\n",
                 spec.vds.size(), spec.compute_nodes);
    std::abort();
  }
  if (!spec.store_payload || !spec.workload.real_payload) {
    // The durability oracle reads back acked bytes; without them every
    // read-back would be a false violation.
    std::fprintf(stderr,
                 "run_chaos: spec needs store_payload and workload.real_payload"
                 " (store_payload=%d, real_payload=%d)\n",
                 spec.store_payload ? 1 : 0,
                 spec.workload.real_payload ? 1 : 0);
    std::abort();
  }
  auto vd_size = [&spec](int node) {
    return spec.vds.empty()
               ? spec.vd_size_bytes
               : spec.vds[static_cast<std::size_t>(node)].size_bytes;
  };
  ebs::ClusterParams params = ebs::params_from(spec);
  params.obs = cfg.obs;
  if (cfg.dpu_cpu_cores > 0) params.dpu.cpu_cores = cfg.dpu_cpu_cores;
  if (cfg.solar_cpu_per_rpc > 0) params.solar.cpu_per_rpc = cfg.solar_cpu_per_rpc;
  if (cfg.disable_solar_failover) {
    params.solar.path.fail_threshold = 1 << 30;  // the planted bug
  }
  ebs::Scenario s = ebs::build_scenario(spec, std::move(params));
  ebs::Cluster& cluster = *s.cluster;

  const int nodes = cluster.num_compute();
  std::vector<OracleBoard> boards(static_cast<std::size_t>(nodes),
                                  OracleBoard(cfg.oracle));
  Injector injector(cluster);
  Rng rng(spec.seed ^ 0xC4A05F'44D2ull);

  // `cluster.engine().now()` routes through the calling thread's shard
  // context, so inside submit/complete hooks it reads the home engine.
  auto wrapped_submit = [&cluster, &boards](int node) {
    OracleBoard* board = &boards[static_cast<std::size_t>(node)];
    return [&cluster, board, node](IoRequest io, IoCompleteFn done) {
      const std::uint64_t id = board->on_submit(io, cluster.engine().now());
      cluster.compute(node).submit_io(
          std::move(io),
          [&cluster, board, id, done = std::move(done)](IoResult res) {
            board->on_complete(id, res, cluster.engine().now());
            done(std::move(res));
          });
    };
  };

  workload::FioConfig fc;
  fc.vd_id = s.vds[0];
  fc.vd_size = vd_size(0);
  fc.block_size = spec.workload.block_size;
  fc.iodepth = spec.workload.iodepth;
  fc.read_fraction = spec.workload.read_fraction;
  fc.sequential = spec.workload.sequential;
  fc.real_payload = spec.workload.real_payload;
  fc.max_ios = spec.workload.max_ios;
  std::unique_ptr<workload::FioJob> fio;
  {
    sim::ShardScope scope(cluster.compute_shard(0));
    fio = std::make_unique<workload::FioJob>(cluster.engine(),
                                             wrapped_submit(0), fc,
                                             rng.fork(100));
  }

  std::vector<std::unique_ptr<workload::PoissonLoad>> poissons;
  for (int i = 0; i < nodes; ++i) {
    workload::PoissonConfig pc;
    pc.vd_id = s.vds[static_cast<std::size_t>(i)];
    pc.vd_size = vd_size(i);
    pc.iops = spec.workload.poisson_iops;
    pc.read_fraction = spec.workload.read_fraction;
    pc.block_size = spec.workload.block_size;
    pc.real_payload = spec.workload.real_payload;
    sim::ShardScope scope(cluster.compute_shard(i));
    poissons.push_back(std::make_unique<workload::PoissonLoad>(
        cluster.engine(), wrapped_submit(i), pc,
        rng.fork(200 + static_cast<std::uint64_t>(i))));
  }

  for (int i = 0; i < nodes; ++i) {
    sim::ShardScope scope(cluster.compute_shard(i));
    sim::Engine& he = cluster.engine();
    he.at(he.now(), [&fio, &poissons, i] {
      if (i == 0) fio->start();
      poissons[static_cast<std::size_t>(i)]->start();
    });
  }
  s.run_until(cfg.warmup);

  const TimeNs armed_at = s.now();
  injector.arm(cfg.plan);
  s.run_until(s.now() + cfg.active);

  {
    sim::ShardScope scope(cluster.compute_shard(0));
    fio->stop();
  }
  for (int i = 0; i < nodes; ++i) {
    sim::ShardScope scope(cluster.compute_shard(i));
    poissons[static_cast<std::size_t>(i)]->stop();
  }
  // EC durability under the plan's live outages: with the fleet's worst
  // moment behind us but faults not yet repaired, every committed cell
  // must still be recoverable — unless more than m fragments are down.
  if (spec.ec.enabled) {
    audit_ec(cluster, storage_down_at(cluster, cfg.plan, armed_at, s.now()),
             s.now(), boards[0]);
  }
  injector.repair_all();
  for (OracleBoard& b : boards) b.set_repair_time(injector.last_repair_time());

  // Drain to quiesce in slices so we notice the fleet going idle early.
  const TimeNs deadline = s.now() + cfg.drain_limit;
  while (s.pending() > 0 && s.now() < deadline) {
    s.run_until(std::min(deadline, s.now() + cfg.drain_slice));
  }

  // Post-repair: once the maintenance agents have drained, the fleet must
  // be whole again (every fragment rebuilt or back online).
  if (spec.ec.enabled && maintenance_idle(cluster)) {
    audit_ec(cluster, {}, s.now(), boards[0]);
  }

  std::uint64_t outstanding = 0;
  for (OracleBoard& b : boards) {
    b.check_outstanding(s.now(), injector.last_repair_time());
    outstanding += b.outstanding();
  }
  if (outstanding == 0) {
    // Conservation is a fleet-global property; report it once, on node 0.
    if (s.pending() > 0) {
      boards[0].add_violation(
          "conservation",
          std::to_string(s.pending()) + " timers still pending at quiesce",
          s.now());
    }
    const std::size_t leaked = cluster.network().packets_outstanding();
    if (leaked > 0) {
      boards[0].add_violation(
          "conservation",
          std::to_string(leaked) + " pooled packets never returned", s.now());
    }
  }

  // Durability read-back (post-repair, so probes themselves are clean): a
  // deterministic sample of each node's committed cells, probed through
  // that node's own stack and VD.
  if (outstanding == 0 && cfg.oracle.check_crc && cfg.readback_samples > 0) {
    for (int i = 0; i < nodes; ++i) {
      OracleBoard* board = &boards[static_cast<std::size_t>(i)];
      const auto cells =
          board->stable_cells(static_cast<std::size_t>(cfg.readback_samples));
      sim::ShardScope scope(cluster.compute_shard(i));
      for (const OracleBoard::StableCell& cell : cells) {
        IoRequest io;
        io.vd_id = cell.vd_id;
        io.op = OpType::kRead;
        io.offset = cell.lba;
        io.len = 4096;
        cluster.compute(i).submit_io(
            std::move(io), [&cluster, board, cell](IoResult res) {
              board->check_readback(cell, res, cluster.engine().now());
            });
      }
    }
    s.run();
  }

  RunReport report;
  for (const OracleBoard& b : boards) {
    report.violations.insert(report.violations.end(), b.violations().begin(),
                             b.violations().end());
    report.ios_completed += b.completed();
    report.errors += b.errors();
    report.hangs += b.hangs();
    report.crc_checks += b.crc_checks();
  }
  std::stable_sort(report.violations.begin(), report.violations.end(),
                   [](const Violation& a, const Violation& b) {
                     return a.at < b.at;
                   });
  report.faults_applied = static_cast<std::uint64_t>(injector.applied());
  report.faults_reverted = static_cast<std::uint64_t>(injector.reverted());
  report.executed = s.executed();
  report.end_time = s.now();
  return report;
}

}  // namespace repro::chaos
