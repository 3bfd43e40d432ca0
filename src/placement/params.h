// Cluster-level placement knobs. Lives on ebs::ClusterParams / ScenarioSpec
// the same way the qos and ec subsystems' params do: `enabled == false`
// (no "placement" key in the scenario) means no policy object is ever
// built and the run is bit-identical to a spec that predates the field.
#pragma once

#include <string>

#include "placement/policy.h"

namespace repro::obs {
struct JsonValue;
class JsonWriter;
}  // namespace repro::obs

namespace repro::placement {

struct PlacementParams {
  bool enabled = false;
  /// Stripe-pool schedule policy (see policy.h). kLegacyRotated under
  /// `enabled` exercises the policy plumbing while staying byte-identical
  /// to the inline layout — the back-compat arm CI byte-diffs.
  PolicyKind policy = PolicyKind::kLegacyRotated;
};

/// JSON round-trip (ScenarioSpec "placement" object). Mirrors
/// ec::write_ec_params.
void write_placement_params(obs::JsonWriter& w, const PlacementParams& p);
bool read_placement_params(const obs::JsonValue& v, PlacementParams* p);
/// Keys `read_placement_params` understands — the scenario strict parser
/// rejects anything else.
bool placement_params_key_allowed(const std::string& key);

}  // namespace repro::placement
