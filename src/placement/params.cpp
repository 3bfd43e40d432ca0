#include "placement/params.h"

#include "obs/json.h"
#include "obs/json_reader.h"

namespace repro::placement {

void write_placement_params(obs::JsonWriter& w, const PlacementParams& p) {
  w.begin_object();
  w.field("enabled", p.enabled);
  w.field("policy", to_string(p.policy));
  w.end_object();
}

bool read_placement_params(const obs::JsonValue& v, PlacementParams* p) {
  if (v.type != obs::JsonValue::Type::kObject) return false;
  obs::json_bool(v, "enabled", &p->enabled);
  std::string policy;
  // A typo'd policy must not quietly run the default.
  return !obs::json_string(v, "policy", &policy) ||
         policy_from_string(policy, &p->policy);
}

bool placement_params_key_allowed(const std::string& key) {
  return key == "enabled" || key == "policy";
}

}  // namespace repro::placement
