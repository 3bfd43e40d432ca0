#include "ebs/scenario.h"

#include <utility>

#include "obs/fields.h"
#include "obs/obs.h"

namespace repro::ebs {

std::string ScenarioSpec::to_json() const { return obs::to_json(*this); }

bool scenario_from_json(const std::string& text, ScenarioSpec* out,
                        std::string* error) {
  return obs::from_json(text, out, "scenario", error);
}

ClusterParams params_from(const ScenarioSpec& spec) {
  ClusterParams p;
  p.topo.compute_servers = spec.compute_nodes;
  p.topo.storage_servers = spec.storage_nodes;
  p.topo.servers_per_rack = spec.servers_per_rack;
  p.topo.spines_per_pod = spec.spines_per_pod;
  p.topo.core_switches = spec.core_switches;
  p.stack = spec.stack;
  p.compute_stacks = spec.compute_stacks;
  p.on_dpu = spec.on_dpu;
  p.seed = spec.seed;
  p.block_server.store_payload = spec.store_payload;
  p.topo.shards = spec.shards;
  p.vd_stripe_width = spec.vd_stripe_width;
  p.qos = spec.qos;
  p.ec = spec.ec;
  p.placement = spec.placement;
  return p;
}

void Scenario::run_until(TimeNs t) {
  sharded ? sharded->run_until(t) : engine->run_until(t);
}

void Scenario::run() {
  sharded ? sharded->run() : engine->run();
}

TimeNs Scenario::now() const {
  return sharded ? sharded->now() : engine->now();
}

std::uint64_t Scenario::executed() const {
  return sharded ? sharded->executed() : engine->executed();
}

std::size_t Scenario::pending() const {
  return sharded ? sharded->pending() : engine->pending();
}

Scenario build_scenario(const ScenarioSpec& spec, obs::Obs* obs) {
  ClusterParams p = params_from(spec);
  p.obs = obs;
  return build_scenario(spec, std::move(p));
}

Scenario build_scenario(const ScenarioSpec& spec, ClusterParams p) {
  obs::Obs* obs = p.obs;
  Scenario s;
  if (spec.shards > 1) {
    s.sharded = std::make_unique<sim::ShardedEngine>(
        spec.shards, spec.threads > 0 ? spec.threads : 1);
    s.cluster = std::make_unique<Cluster>(*s.sharded, std::move(p));
    if (obs != nullptr) obs->attach(*s.sharded);
  } else {
    s.engine = std::make_unique<sim::Engine>();
    s.cluster = std::make_unique<Cluster>(*s.engine, std::move(p));
    if (obs != nullptr) obs->attach(*s.engine);
  }
  if (spec.vds.empty()) {
    for (int i = 0; i < s.cluster->num_compute(); ++i) {
      s.vds.push_back(s.cluster->create_vd(spec.vd_size_bytes));
    }
  } else {
    for (const VdSpec& vd : spec.vds) {
      const std::uint64_t id = s.cluster->create_vd(vd.size_bytes);
      if (vd.has_qos) s.cluster->set_qos(id, vd.qos);
      if (vd.has_slo) s.cluster->set_slo(id, vd.slo);
      s.vds.push_back(id);
    }
  }
  return s;
}

}  // namespace repro::ebs
