#include "qos/admission.h"

#include <algorithm>
#include <utility>

namespace repro::qos {

using transport::IoResult;
using transport::StorageStatus;

NodeAdmission::NodeAdmission(sim::Engine& engine, const SloTable& slos,
                             sa::QosTable& qos, const QosParams& params)
    : engine_(engine),
      slos_(slos),
      qos_(qos),
      params_(params),
      node_predictor_(params.predictor_window, params.predictor_buckets) {}

NodeAdmission::Tenant& NodeAdmission::tenant(std::uint64_t vd_id) {
  auto it = tenants_.find(vd_id);
  if (it != tenants_.end()) return it->second;
  const SloSpec* slo = slos_.find(vd_id);
  if (slo == nullptr) slo = &default_slo_;
  auto [ins, _] = tenants_.try_emplace(
      vd_id,
      Tenant{slo,
             LoadPredictor(params_.predictor_window,
                           params_.predictor_buckets),
             0});
  return ins->second;
}

void NodeAdmission::submit(transport::IoRequest io,
                           transport::IoCompleteFn done, const PassFn& pass) {
  const TimeNs now = engine_.now();
  Tenant& t = tenant(io.vd_id);
  // Background maintenance traffic (EC rebuild, scrub) never inherits the
  // VD's contract: it is classed best-effort and gets no admission floor —
  // a rebuild storm must shed before foreground guarantees do.
  const SloSpec& slo = io.background ? default_slo_ : *t.slo;
  const int cls = static_cast<int>(slo.cls);

  bool reject = false;
  if (params_.early_reject) {
    const TimeNs token_wait = qos_.peek(io.vd_id, io.len, now);
    // A starved tenant has an empty completion window (its own predictor
    // stays cold), so doom is the max of the tenant's view and the node's.
    const TimeNs predicted =
        std::max(t.predictor.predict(now, t.inflight),
                 node_predictor_.predict(now, node_inflight_)) +
        token_wait;
    if (static_cast<double>(predicted) >
        static_cast<double>(slo.target_p99) * params_.headroom) {
      reject = true;
      // Admission floor: a guaranteed tenant running under its promised
      // rate gets in regardless of the prediction — overload must not
      // starve the tenants the contract protects.
      if (slo.guaranteed_iops > 0.0 &&
          t.predictor.admitted_rate(now) < slo.guaranteed_iops) {
        reject = false;
      }
    }
  }

  if (reject) {
    ++stats_.rejected[cls];
    engine_.at(now + params_.reject_latency,
               [this, done = std::move(done)]() mutable {
                 IoResult res;
                 res.status = StorageStatus::kRejected;
                 res.completed_at = engine_.now();
                 done(std::move(res));
               });
    return;
  }

  ++stats_.admitted[cls];
  t.predictor.on_admit(now);
  node_predictor_.on_admit(now);
  ++t.inflight;
  ++node_inflight_;
  const TimeNs target = slo.target_p99;
  const std::uint64_t vd = io.vd_id;
  pass(std::move(io),
       [this, done = std::move(done), vd, cls, target, now](IoResult res) {
         Tenant& t = tenants_.find(vd)->second;
         --t.inflight;
         --node_inflight_;
         TimeNs latency = res.completed_at - now - res.qos_wait_ns;
         if (latency < 0) latency = 0;
         t.predictor.on_complete(engine_.now(), latency);
         node_predictor_.on_complete(engine_.now(), latency);
         if (res.status == StorageStatus::kOk && latency <= target) {
           ++stats_.slo_ok[cls];
         } else {
           ++stats_.slo_violated[cls];
         }
         done(std::move(res));
       });
}

void NodeAdmission::register_metrics(obs::Registry& reg,
                                     const std::string& node) {
  for (int c = 0; c < kSloClasses; ++c) {
    const obs::Labels labels = {
        {"node", node}, {"class", to_string(static_cast<SloClass>(c))}};
    reg.expose_counter("qos.admitted", labels, &stats_.admitted[c]);
    reg.expose_counter("qos.rejected", labels, &stats_.rejected[c]);
    reg.expose_counter("qos.slo_ok", labels, &stats_.slo_ok[c]);
    reg.expose_counter("qos.slo_violated", labels, &stats_.slo_violated[c]);
  }
  // Goodput-under-SLO as a sampled series: the sampler's deltas of this
  // cumulative count are the per-interval goodput curve.
  reg.expose_gauge("qos.goodput_total", obs::label("node", node),
                   [this]() -> std::int64_t {
                     return static_cast<std::int64_t>(goodput_total());
                   });
}

}  // namespace repro::qos
