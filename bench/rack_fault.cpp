// Rack-fault bench: placement spread vs blast radius, and the
// exposure-ordered rebuild drain.
//
// Phase 1 (layout): for each placement policy (none/legacy baseline,
// rack-aware, exposure) build an identical EC fleet, stripe real data, and
// measure the per-stripe rack concentration — the histogram of "fragments
// of one stripe in one rack" — plus the rack-domain durability oracle's
// verdict for every rack (audit_ec_rack_durability: would a whole-rack
// fail-stop lose committed data?). The spread policies must bound the
// concentration at ceil((k+m)/racks) and keep every rack's audit green;
// the legacy rotated layout concentrates up to servers_per_rack fragments
// and loses data to a single rack.
//
// Phase 2 (drain): under the exposure policy, fail-stop two fragment
// holders (adjacent schedule slots — a correlated dual failure across
// racks) and record the MaintenanceAgent's rebuild log: the at-pop
// exposure of every rebuilt segment, i.e. the exposure-drain curve. The
// exposure-ordered pump must drain most-exposed segments first (the curve
// is non-increasing); the same outage under the FIFO (rack-aware) pump is
// reported for contrast.
//
// Asserts: spread bound respected, legacy concentration exceeds it, rack
// audits green under spread / red under legacy, drain curve monotone and
// complete, and bit-determinism (the exposure drain re-run must
// fingerprint equal). Writes BENCH_placement.json. --smoke shrinks for CI.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "chaos/ec_oracle.h"
#include "common/crc32.h"
#include "ebs/cluster.h"
#include "ec/maintenance.h"
#include "placement/policy.h"
#include "sa/segment_table.h"

namespace {

using namespace repro;
using bench::mix;
using bench::pattern;
using transport::IoRequest;
using transport::IoResult;
using transport::OpType;
using transport::StorageStatus;

bool write_cell(sim::Engine& eng, ebs::Cluster& cluster, std::uint64_t vd,
                std::uint64_t offset) {
  IoRequest io;
  io.vd_id = vd;
  io.op = OpType::kWrite;
  io.offset = offset;
  io.len = 4096;
  io.payload = transport::make_placeholder_blocks(offset, io.len, 4096);
  for (auto& blk : io.payload) {
    blk.data = pattern(blk.len, blk.lba + 1);
    blk.crc = crc32_raw(blk.data);
  }
  bool ok = false;
  bool done = false;
  eng.at(eng.now(), [&] {
    cluster.compute(0).submit_io(std::move(io), [&](IoResult r) {
      ok = r.status == StorageStatus::kOk;
      done = true;
    });
  });
  while (!done && eng.step()) {
  }
  return done && ok;
}

struct FleetShape {
  int storage = 6;
  int per_rack = 2;
  int k = 2;
  int m = 1;
  std::uint64_t vd_bytes = 32ull << 20;
};

ebs::ClusterParams fleet_params(const FleetShape& shape,
                                const char* policy) {
  ebs::ClusterParams p;
  p.topo.compute_servers = 1;
  p.topo.storage_servers = shape.storage;
  p.topo.servers_per_rack = shape.per_rack;
  p.stack = ebs::StackKind::kSolar;
  p.seed = 2028;
  p.block_server.store_payload = true;
  p.ec.enabled = true;
  p.ec.k = shape.k;
  p.ec.m = shape.m;
  if (policy != nullptr) {
    p.placement.enabled = true;
    if (!placement::policy_from_string(policy, &p.placement.policy)) {
      std::fprintf(stderr, "unknown policy: %s\n", policy);
      std::exit(2);
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Phase 1: layout histogram + rack-domain oracle.

struct LayoutResult {
  std::string policy;
  std::uint64_t stripes = 0;
  int max_rack_fragments = 0;       ///< worst per-stripe rack concentration
  std::vector<std::uint64_t> hist;  ///< hist[c] = (stripe, rack) pairs with c
  int loss_racks = 0;               ///< racks whose fail-stop loses data
};

LayoutResult run_layout(const FleetShape& shape, const char* policy,
                        const char* label) {
  sim::Engine eng;
  ebs::Cluster cluster(eng, fleet_params(shape, policy));
  const std::uint64_t vd = cluster.create_vd(shape.vd_bytes);

  // Commit row 0 of every data segment: every stripe row carries k real
  // cells, so the rack oracle audits genuine quorum loss, not
  // absent-as-zero rescues.
  const std::uint64_t data_segs =
      shape.vd_bytes / sa::SegmentTable::kSegmentBytes;
  for (std::uint64_t seg = 0; seg < data_segs; ++seg) {
    if (!write_cell(eng, cluster, vd,
                    seg * sa::SegmentTable::kSegmentBytes)) {
      std::fprintf(stderr, "seed write failed (policy %s, seg %llu)\n",
                   label, static_cast<unsigned long long>(seg));
      std::exit(1);
    }
  }

  LayoutResult r;
  r.policy = label;
  const auto info = cluster.segments().ec_info(vd);
  if (!info) {
    std::fprintf(stderr, "vd %llu has no EC info\n",
                 static_cast<unsigned long long>(vd));
    std::exit(1);
  }
  const placement::ClusterView& view = cluster.placement_view();
  const int racks = view.num_racks();
  r.hist.assign(static_cast<std::size_t>(shape.k + shape.m) + 1, 0);
  std::vector<sa::SegmentLocation> frags;
  std::vector<int> per_rack(static_cast<std::size_t>(racks), 0);
  for (std::uint32_t s = 0; s < info->num_stripes; ++s) {
    cluster.segments().ec_fragments(vd, s, &frags);
    std::fill(per_rack.begin(), per_rack.end(), 0);
    for (const auto& loc : frags) {
      if (loc.block_server == 0) continue;
      const int rack = view.rack_of(loc.block_server);
      if (rack >= 0) ++per_rack[static_cast<std::size_t>(rack)];
    }
    for (const int c : per_rack) {
      ++r.hist[static_cast<std::size_t>(c)];
      r.max_rack_fragments = std::max(r.max_rack_fragments, c);
    }
    ++r.stripes;
  }
  for (int rack = 0; rack < racks; ++rack) {
    if (!chaos::audit_ec_rack_durability(cluster, rack, eng.now()).empty()) {
      ++r.loss_racks;
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Phase 2: exposure drain curve.

struct DrainResult {
  std::string policy;
  std::vector<ec::MaintenanceAgent::RebuildRecord> log;
  bool drained = false;
  bool monotone = true;  ///< at-pop exposure never increases
  int inversions = 0;    ///< records whose exposure exceeds the previous
  std::uint64_t fingerprint = 0;
};

DrainResult run_drain(const FleetShape& shape, const char* policy) {
  sim::Engine eng;
  ebs::Cluster cluster(eng, fleet_params(shape, policy));
  const std::uint64_t vd = cluster.create_vd(shape.vd_bytes);
  const auto pool = cluster.segments().stripe_servers(vd);

  const std::uint64_t stripes =
      shape.vd_bytes / sa::SegmentTable::kSegmentBytes /
      static_cast<std::uint64_t>(shape.k);
  for (std::uint64_t g = 0; g < stripes; ++g) {
    if (!write_cell(eng, cluster, vd,
                    g * static_cast<std::uint64_t>(shape.k) *
                        sa::SegmentTable::kSegmentBytes)) {
      std::fprintf(stderr, "drain seed write failed (stripe %llu)\n",
                   static_cast<unsigned long long>(g));
      std::exit(1);
    }
  }

  // Correlated dual failure on adjacent schedule slots (two racks): every
  // doubly-lost fragment pair stays rebuildable in either order, so the
  // drain runs to completion and the curve is about ordering, not stalls.
  const net::IpAddr a = pool[0];
  const net::IpAddr b = pool[1];
  for (int i = 0; i < cluster.num_storage(); ++i) {
    const net::IpAddr ip = cluster.storage(i).nic().ip();
    if (ip == a || ip == b) {
      cluster.network().fail_device_stop(cluster.storage(i).nic());
    }
  }
  cluster.compute(0).ec()->mark_server(a, false);
  cluster.compute(0).ec()->mark_server(b, false);
  ec::MaintenanceAgent* agent = cluster.compute(0).maintenance();
  cluster.placement_view().set_health(b, false);
  agent->force_server_down(a);
  agent->force_server_down(b);

  const TimeNs deadline = eng.now() + seconds(30);
  while (!agent->idle() && eng.now() < deadline) {
    eng.run_until(eng.now() + ms(50));
  }

  DrainResult r;
  r.policy = policy;
  r.log = agent->rebuild_log();
  r.drained = agent->idle() && agent->stalled_segments() == 0;
  for (std::size_t i = 1; i < r.log.size(); ++i) {
    if (r.log[i].exposure > r.log[i - 1].exposure) {
      r.monotone = false;
      ++r.inversions;
    }
  }
  std::uint64_t h = mix(eng.executed(), static_cast<std::uint64_t>(eng.now()));
  for (const auto& rec : r.log) {
    h = mix(h, rec.vd);
    h = mix(h, rec.seg);
    h = mix(h, static_cast<std::uint64_t>(rec.exposure));
  }
  r.fingerprint = h;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  // Layout fleet: ceil((k+m)/racks) = 1, so the spread policies survive
  // any whole-rack fail-stop while the rotated layout packs m+1 fragments
  // into one rack. The full shape widens the pod and the code.
  FleetShape layout_shape;
  if (!smoke) {
    layout_shape.storage = 12;
    layout_shape.per_rack = 4;
    layout_shape.k = 4;
    layout_shape.m = 2;
    layout_shape.vd_bytes = 64ull << 20;
  }
  // Drain fleet: m = 2 so a dual failure is decodable and doubly-exposed
  // stripes exist.
  FleetShape drain_shape;
  drain_shape.k = 2;
  drain_shape.m = 2;
  drain_shape.vd_bytes = smoke ? (64ull << 20) : (128ull << 20);

  const int racks = layout_shape.storage / layout_shape.per_rack;
  const int bound =
      (layout_shape.k + layout_shape.m + racks - 1) / racks;

  bench::RunSummary summary(
      "placement", "rack-aware spread & exposure-driven rebuild (solar)");
  bool ok = true;

  std::printf("%-12s %8s %10s %6s %10s\n", "policy", "stripes", "max/rack",
              "bound", "loss_racks");
  struct Arm {
    const char* policy;  ///< null = placement subsystem off
    const char* label;
    bool spread;
  };
  const Arm arms[] = {{nullptr, "legacy", false},
                      {"rack-aware", "rack-aware", true},
                      {"exposure", "exposure", true}};
  for (const Arm& arm : arms) {
    const LayoutResult r = run_layout(layout_shape, arm.policy, arm.label);
    std::printf("%-12s %8llu %10d %6d %10d\n", r.policy.c_str(),
                static_cast<unsigned long long>(r.stripes),
                r.max_rack_fragments, bound, r.loss_racks);
    auto& row = summary.row()
                    .set("kind", std::string("layout"))
                    .set("policy", r.policy)
                    .set("stripes", r.stripes)
                    .set("max_rack_fragments",
                         static_cast<std::int64_t>(r.max_rack_fragments))
                    .set("spread_bound", static_cast<std::int64_t>(bound))
                    .set("loss_racks",
                         static_cast<std::int64_t>(r.loss_racks));
    for (std::size_t c = 0; c < r.hist.size(); ++c) {
      row.set("rack_frag_" + std::to_string(c), r.hist[c]);
    }
    if (arm.spread) {
      if (r.max_rack_fragments > bound) {
        std::fprintf(stderr,
                     "SPREAD BOUND VIOLATED: %s packs %d fragments into one "
                     "rack (bound %d)\n",
                     r.policy.c_str(), r.max_rack_fragments, bound);
        ok = false;
      }
      if (r.loss_racks != 0) {
        std::fprintf(stderr,
                     "RACK FAULT NOT SURVIVED: %s loses data to %d rack "
                     "fail-stop(s)\n",
                     r.policy.c_str(), r.loss_racks);
        ok = false;
      }
    } else {
      if (r.max_rack_fragments <= bound) {
        std::fprintf(stderr,
                     "BASELINE NOT CONCENTRATED: legacy max %d <= bound %d "
                     "(the comparison is vacuous)\n",
                     r.max_rack_fragments, bound);
        ok = false;
      }
      if (r.loss_racks == 0) {
        std::fprintf(stderr,
                     "BASELINE SURVIVED: legacy lost no rack (expected "
                     "whole-rack data loss)\n");
        ok = false;
      }
    }
  }

  // Exposure-ordered drain vs the FIFO pump, same outage.
  const DrainResult fifo = run_drain(drain_shape, "rack-aware");
  const DrainResult expo = run_drain(drain_shape, "exposure");
  std::printf("\n%-12s %8s %10s %10s %12s %18s\n", "drain", "records",
              "monotone", "inversions", "drained", "fingerprint");
  for (const DrainResult* d : {&fifo, &expo}) {
    std::printf("%-12s %8zu %10s %10d %12s   %016llx\n", d->policy.c_str(),
                d->log.size(), d->monotone ? "yes" : "no", d->inversions,
                d->drained ? "yes" : "no",
                static_cast<unsigned long long>(d->fingerprint));
    summary.row()
        .set("kind", std::string("drain_summary"))
        .set("policy", d->policy)
        .set("records", static_cast<std::uint64_t>(d->log.size()))
        .set("monotone", d->monotone)
        .set("inversions", static_cast<std::int64_t>(d->inversions))
        .set("drained", d->drained)
        .set("fingerprint", d->fingerprint);
  }
  // The curve itself: one row per rebuilt segment, in drain order.
  for (std::size_t i = 0; i < expo.log.size(); ++i) {
    summary.row()
        .set("kind", std::string("drain_curve"))
        .set("seq", static_cast<std::uint64_t>(i))
        .set("seg", expo.log[i].seg)
        .set("exposure", static_cast<std::int64_t>(expo.log[i].exposure));
  }

  if (!expo.drained || !fifo.drained) {
    std::fprintf(stderr, "DRAIN INCOMPLETE: fifo=%d exposure=%d\n",
                 fifo.drained, expo.drained);
    ok = false;
  }
  if (!expo.monotone) {
    std::fprintf(stderr,
                 "DRAIN ORDER VIOLATION: exposure-ordered pump recorded %d "
                 "exposure inversions\n",
                 expo.inversions);
    ok = false;
  }
  if (expo.log.size() != fifo.log.size()) {
    std::fprintf(stderr, "DRAIN COVERAGE MISMATCH: %zu vs %zu records\n",
                 expo.log.size(), fifo.log.size());
    ok = false;
  }
  if (expo.log.empty() ||
      std::none_of(expo.log.begin(), expo.log.end(),
                   [](const auto& rec) { return rec.exposure >= 2; })) {
    std::fprintf(stderr,
                 "DRAIN CURVE FLAT: no doubly-exposed segment was rebuilt\n");
    ok = false;
  }
  // Bit-determinism: the exposure arm re-run must fingerprint equal.
  const DrainResult again = run_drain(drain_shape, "exposure");
  if (again.fingerprint != expo.fingerprint) {
    std::fprintf(stderr, "DETERMINISM VIOLATION: %016llx != %016llx\n",
                 static_cast<unsigned long long>(again.fingerprint),
                 static_cast<unsigned long long>(expo.fingerprint));
    ok = false;
  }

  if (!summary.write()) {
    std::fprintf(stderr, "warning: could not write BENCH_placement.json\n");
  }
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
