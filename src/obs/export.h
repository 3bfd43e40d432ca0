// Exporters: Chrome trace-event JSON (Perfetto-loadable), metric/series
// JSON, and series CSV.
//
// Chrome trace mapping: span pid = simulated device, tid = core/port within
// it; "M" metadata events name processes/threads, "X" complete events carry
// one span each with `ts`/`dur` in (fractional) microseconds and the span
// id/parent in `args` so tooling can rebuild the causal tree.
#pragma once

#include <ostream>
#include <string>

#include "obs/registry.h"
#include "obs/series.h"
#include "obs/trace.h"

namespace repro::obs {

void write_chrome_trace(std::ostream& os, const Tracer& tracer);

/// All registry entries with current values; histograms include
/// count/mean/p50/p95/p99/max.
void write_metrics_json(std::ostream& os, const Registry& registry);

/// Sampled time series as JSON: one object per series with its points.
void write_series_json(std::ostream& os, const Registry& registry,
                       const Sampler& sampler);

/// Sampled time series as CSV rows: metric,labels,t_ns,value.
void write_series_csv(std::ostream& os, const Registry& registry,
                      const Sampler& sampler);

/// File-writing wrappers; return false unless the whole file was written.
bool export_chrome_trace(const std::string& path, const Tracer& tracer);
bool export_metrics_json(const std::string& path, const Registry& registry);
bool export_series_csv(const std::string& path, const Registry& registry,
                       const Sampler& sampler);

}  // namespace repro::obs
