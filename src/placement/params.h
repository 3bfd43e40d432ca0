// Cluster-level placement knobs. Lives on ebs::ClusterParams / ScenarioSpec
// the same way the qos and ec subsystems' params do: `enabled == false`
// (no "placement" key in the scenario) means no policy object is ever
// built and the run is bit-identical to a spec that predates the field.
#pragma once

#include "placement/policy.h"

namespace repro::placement {

struct PlacementParams {
  bool enabled = false;
  /// Stripe-pool schedule policy (see policy.h). kLegacyRotated under
  /// `enabled` exercises the policy plumbing while staying byte-identical
  /// to the inline layout — the back-compat arm CI byte-diffs.
  PolicyKind policy = PolicyKind::kLegacyRotated;
};

/// JSON field list (the ScenarioSpec "placement" object; see
/// obs/fields.h). A typo'd policy name is refused, not run as the default.
template <class V>
void fields(V& v, PlacementParams& p) {
  v.field("enabled", p.enabled);
  v.field("policy", p.policy, policy_from_string);
}

}  // namespace repro::placement
