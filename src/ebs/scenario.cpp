#include "ebs/scenario.h"

#include <sstream>
#include <utility>

#include "obs/json.h"
#include "obs/json_reader.h"
#include "obs/obs.h"

namespace repro::ebs {

namespace {

void write_qos(obs::JsonWriter& w, const sa::QosSpec& q) {
  w.begin_object();
  w.field("iops_limit", q.iops_limit);
  w.field("bandwidth_limit", q.bandwidth_limit);
  w.field("burst_ios", q.burst_ios);
  w.field("burst_bytes", q.burst_bytes);
  w.end_object();
}

bool read_qos(const obs::JsonValue& v, sa::QosSpec* q) {
  if (v.type != obs::JsonValue::Type::kObject) return false;
  obs::json_number(v, "iops_limit", &q->iops_limit);
  obs::json_number(v, "bandwidth_limit", &q->bandwidth_limit);
  obs::json_number(v, "burst_ios", &q->burst_ios);
  obs::json_number(v, "burst_bytes", &q->burst_bytes);
  return true;
}

bool parse_stack(const obs::JsonValue& v, StackKind* out, std::string* error) {
  if (v.type != obs::JsonValue::Type::kString ||
      !stack_from_string(v.str, out)) {
    *error = "unknown stack name: " +
             (v.type == obs::JsonValue::Type::kString ? v.str : "<non-string>");
    return false;
  }
  return true;
}

}  // namespace

std::string ScenarioSpec::to_json() const {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("name", name);
  w.key("topology");
  w.begin_object();
  w.field("compute", compute_nodes);
  w.field("storage", storage_nodes);
  w.field("servers_per_rack", servers_per_rack);
  w.field("spines_per_pod", spines_per_pod);
  w.field("core_switches", core_switches);
  // Written only when sharded so single-engine specs round-trip unchanged.
  if (shards != 1) w.field("shards", shards);
  if (threads != 1) w.field("threads", threads);
  w.end_object();
  if (vd_stripe_width != 0) w.field("vd_stripe_width", vd_stripe_width);
  w.field("stack", to_string(stack));
  if (!compute_stacks.empty()) {
    w.key("compute_stacks");
    w.begin_array();
    for (StackKind k : compute_stacks) w.value(to_string(k));
    w.end_array();
  }
  w.field("on_dpu", on_dpu);
  w.field("seed", seed);
  w.field("store_payload", store_payload);
  w.field("vd_size_bytes", vd_size_bytes);
  if (!vds.empty()) {
    w.key("vds");
    w.begin_array();
    for (const VdSpec& vd : vds) {
      w.begin_object();
      w.field("size_bytes", vd.size_bytes);
      if (vd.has_qos) {
        w.key("qos");
        write_qos(w, vd.qos);
      }
      if (vd.has_slo) {
        w.key("slo");
        qos::write_slo(w, vd.slo);
      }
      w.end_object();
    }
    w.end_array();
  }
  w.key("workload");
  w.begin_object();
  w.field("block_size", workload.block_size);
  w.field("iodepth", workload.iodepth);
  w.field("read_fraction", workload.read_fraction);
  w.field("sequential", workload.sequential);
  w.field("real_payload", workload.real_payload);
  w.field("max_ios", workload.max_ios);
  w.field("poisson_iops", workload.poisson_iops);
  w.end_object();
  // Written only when the subsystem is on, so pre-qos specs round-trip
  // unchanged.
  if (qos.enabled) {
    w.key("qos");
    qos::write_qos_params(w, qos);
  }
  if (ec.enabled) {
    w.key("ec");
    ec::write_ec_params(w, ec);
  }
  if (placement.enabled) {
    w.key("placement");
    placement::write_placement_params(w, placement);
  }
  if (!fault_plan_file.empty()) w.field("fault_plan_file", fault_plan_file);
  w.end_object();
  return os.str();
}

bool scenario_from_json(const std::string& text, ScenarioSpec* out,
                        std::string* error) {
  std::string scratch;
  if (error == nullptr) error = &scratch;
  obs::JsonValue root;
  obs::JsonReader reader(text);
  if (!reader.parse(&root) || root.type != obs::JsonValue::Type::kObject) {
    *error = "scenario: " +
             (reader.error().empty() ? "not a JSON object" : reader.error());
    return false;
  }
  ScenarioSpec spec;
  if (!obs::json_check_keys(
          root,
          {"name", "topology", "vd_stripe_width", "stack", "compute_stacks",
           "on_dpu", "seed", "store_payload", "vd_size_bytes", "vds",
           "workload", "qos", "ec", "placement", "fault_plan_file"},
          "scenario", error)) {
    return false;
  }
  obs::json_string(root, "name", &spec.name);
  double num = 0.0;
  if (const obs::JsonValue* topo = root.find("topology")) {
    if (topo->type != obs::JsonValue::Type::kObject) {
      *error = "scenario: topology must be an object";
      return false;
    }
    if (!obs::json_check_keys(*topo,
                              {"compute", "storage", "servers_per_rack",
                               "spines_per_pod", "core_switches", "shards",
                               "threads"},
                              "scenario.topology", error)) {
      return false;
    }
    if (obs::json_number(*topo, "compute", &num)) {
      spec.compute_nodes = static_cast<int>(num);
    }
    if (obs::json_number(*topo, "storage", &num)) {
      spec.storage_nodes = static_cast<int>(num);
    }
    if (obs::json_number(*topo, "servers_per_rack", &num)) {
      spec.servers_per_rack = static_cast<int>(num);
    }
    if (obs::json_number(*topo, "spines_per_pod", &num)) {
      spec.spines_per_pod = static_cast<int>(num);
    }
    if (obs::json_number(*topo, "core_switches", &num)) {
      spec.core_switches = static_cast<int>(num);
    }
    if (obs::json_number(*topo, "shards", &num)) {
      spec.shards = static_cast<int>(num);
    }
    if (obs::json_number(*topo, "threads", &num)) {
      spec.threads = static_cast<int>(num);
    }
  }
  if (obs::json_number(root, "vd_stripe_width", &num)) {
    spec.vd_stripe_width = static_cast<int>(num);
  }
  if (const obs::JsonValue* v = root.find("stack")) {
    if (!parse_stack(*v, &spec.stack, error)) return false;
  }
  if (const obs::JsonValue* v = root.find("compute_stacks")) {
    if (v->type != obs::JsonValue::Type::kArray) {
      *error = "scenario: compute_stacks must be an array";
      return false;
    }
    for (const obs::JsonValue& item : v->items) {
      StackKind k;
      if (!parse_stack(item, &k, error)) return false;
      spec.compute_stacks.push_back(k);
    }
  }
  obs::json_bool(root, "on_dpu", &spec.on_dpu);
  if (obs::json_number(root, "seed", &num)) {
    spec.seed = static_cast<std::uint64_t>(num);
  }
  obs::json_bool(root, "store_payload", &spec.store_payload);
  if (obs::json_number(root, "vd_size_bytes", &num)) {
    spec.vd_size_bytes = static_cast<std::uint64_t>(num);
  }
  if (const obs::JsonValue* v = root.find("vds")) {
    if (v->type != obs::JsonValue::Type::kArray) {
      *error = "scenario: vds must be an array";
      return false;
    }
    for (const obs::JsonValue& item : v->items) {
      if (item.type != obs::JsonValue::Type::kObject) {
        *error = "scenario: vds entries must be objects";
        return false;
      }
      VdSpec vd;
      if (!obs::json_check_keys(item, {"size_bytes", "qos", "slo"},
                                "scenario.vds", error)) {
        return false;
      }
      if (obs::json_number(item, "size_bytes", &num)) {
        vd.size_bytes = static_cast<std::uint64_t>(num);
      }
      if (const obs::JsonValue* q = item.find("qos")) {
        if (!obs::json_check_keys(*q,
                                  {"iops_limit", "bandwidth_limit",
                                   "burst_ios", "burst_bytes"},
                                  "scenario.vds.qos", error)) {
          return false;
        }
        if (!read_qos(*q, &vd.qos)) {
          *error = "scenario: qos must be an object";
          return false;
        }
        vd.has_qos = true;
      }
      if (const obs::JsonValue* slo = item.find("slo")) {
        if (!obs::json_check_keys(
                *slo, {"target_p99_us", "guaranteed_iops", "class"},
                "scenario.vds.slo", error)) {
          return false;
        }
        if (!qos::read_slo(*slo, &vd.slo)) {
          *error = "scenario: slo must be an object";
          return false;
        }
        vd.has_slo = true;
      }
      spec.vds.push_back(vd);
    }
  }
  if (const obs::JsonValue* v = root.find("workload")) {
    if (v->type != obs::JsonValue::Type::kObject) {
      *error = "scenario: workload must be an object";
      return false;
    }
    if (!obs::json_check_keys(*v,
                              {"block_size", "iodepth", "read_fraction",
                               "sequential", "real_payload", "max_ios",
                               "poisson_iops"},
                              "scenario.workload", error)) {
      return false;
    }
    if (obs::json_number(*v, "block_size", &num)) {
      spec.workload.block_size = static_cast<std::uint32_t>(num);
    }
    if (obs::json_number(*v, "iodepth", &num)) {
      spec.workload.iodepth = static_cast<int>(num);
    }
    obs::json_number(*v, "read_fraction", &spec.workload.read_fraction);
    obs::json_bool(*v, "sequential", &spec.workload.sequential);
    obs::json_bool(*v, "real_payload", &spec.workload.real_payload);
    if (obs::json_number(*v, "max_ios", &num)) {
      spec.workload.max_ios = static_cast<std::uint64_t>(num);
    }
    obs::json_number(*v, "poisson_iops", &spec.workload.poisson_iops);
  }
  if (const obs::JsonValue* v = root.find("qos")) {
    if (!obs::json_check_keys(
            *v,
            {"enabled", "early_reject", "headroom", "reject_latency_us",
             "predictor_window_us", "predictor_buckets", "sched_enabled",
             "sched_weight_guaranteed", "sched_weight_best_effort"},
            "scenario.qos", error)) {
      return false;
    }
    if (!qos::read_qos_params(*v, &spec.qos)) {
      *error = "scenario: qos must be an object";
      return false;
    }
  }
  if (const obs::JsonValue* v = root.find("ec")) {
    // The ec subsystem owns its key list (it validates geometry too), so
    // the allow-list is its predicate rather than a literal copy.
    if (!obs::json_check_keys(*v, {}, "scenario.ec", error,
                              &ec::ec_params_key_allowed)) {
      return false;
    }
    if (!ec::read_ec_params(*v, &spec.ec)) {
      *error = "scenario: ec must be an object with valid k/m geometry";
      return false;
    }
  }
  if (const obs::JsonValue* v = root.find("placement")) {
    if (!obs::json_check_keys(*v, {}, "scenario.placement", error,
                              &placement::placement_params_key_allowed)) {
      return false;
    }
    if (!placement::read_placement_params(*v, &spec.placement)) {
      *error = "scenario: placement must be an object with a known policy";
      return false;
    }
  }
  obs::json_string(root, "fault_plan_file", &spec.fault_plan_file);
  *out = std::move(spec);
  return true;
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
