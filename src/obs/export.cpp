#include "obs/export.h"

#include <fstream>

#include "obs/json.h"

namespace repro::obs {

namespace {

// Chrome trace timestamps are microseconds; emit "<us>.<ns%1000 padded>"
// as text so nanosecond precision survives without float formatting.
std::string us_text(TimeNs t) {
  const TimeNs us_part = t / 1000;
  const TimeNs ns_part = t % 1000;
  std::string out = std::to_string(us_part);
  out.push_back('.');
  out.push_back(static_cast<char>('0' + ns_part / 100));
  out.push_back(static_cast<char>('0' + (ns_part / 10) % 10));
  out.push_back(static_cast<char>('0' + ns_part % 10));
  return out;
}

std::string labels_text(const Labels& labels) {
  std::string out;
  for (const Label& l : labels) {
    if (!out.empty()) out.push_back(';');
    out += l.key;
    out.push_back('=');
    out += l.value;
  }
  return out;
}

void write_entry_meta(JsonWriter& w, const MetricEntry& e) {
  w.field("name", std::string_view(e.name));
  w.key("labels").begin_object();
  for (const Label& l : e.labels) {
    w.field(std::string_view(l.key), std::string_view(l.value));
  }
  w.end_object();
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& tracer) {
  JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const auto& [pid, name] : tracer.process_names()) {
    w.begin_object();
    w.field("ph", "M");
    w.field("pid", static_cast<std::uint64_t>(pid));
    w.field("name", "process_name");
    w.key("args").begin_object();
    w.field("name", std::string_view(name));
    w.end_object();
    w.end_object();
  }
  for (const auto& [key, name] : tracer.thread_names()) {
    w.begin_object();
    w.field("ph", "M");
    w.field("pid", static_cast<std::uint64_t>(key.first));
    w.field("tid", static_cast<std::uint64_t>(key.second));
    w.field("name", "thread_name");
    w.key("args").begin_object();
    w.field("name", std::string_view(name));
    w.end_object();
    w.end_object();
  }
  tracer.for_each([&](const SpanRecord& r) {
    w.begin_object();
    w.field("ph", "X");
    w.field("cat", "sim");
    w.field("name", r.name);
    w.field("pid", static_cast<std::uint64_t>(r.pid));
    w.field("tid", static_cast<std::uint64_t>(r.tid));
    w.key("ts").value_raw(us_text(r.t0));
    const TimeNs dur = r.t1 > r.t0 ? r.t1 - r.t0 : 0;
    w.key("dur").value_raw(us_text(dur));
    w.key("args").begin_object();
    w.field("id", r.id);
    w.field("parent", r.parent);
    if (r.arg_name != nullptr) w.field(r.arg_name, r.arg);
    if (r.arg2_name != nullptr) w.field(r.arg2_name, r.arg2);
    w.end_object();
    w.end_object();
  });
  w.end_array();
  w.field("displayTimeUnit", "ns");
  w.end_object();
  os << '\n';
}

void write_metrics_json(std::ostream& os, const Registry& registry) {
  JsonWriter w(os);
  w.begin_object();
  w.key("metrics").begin_array();
  for (const MetricEntry& e : registry.entries()) {
    w.begin_object();
    write_entry_meta(w, e);
    switch (e.kind) {
      case MetricKind::kCounter:
        w.field("kind", "counter");
        w.field("value", *e.counter);
        break;
      case MetricKind::kGauge:
        w.field("kind", "gauge");
        w.field("value", e.gauge());
        break;
      case MetricKind::kHistogram:
        w.field("kind", "histogram");
        w.field("count", e.hist->count());
        w.field("mean", e.hist->mean());
        w.field("p50", e.hist->percentile(0.50));
        w.field("p95", e.hist->percentile(0.95));
        w.field("p99", e.hist->percentile(0.99));
        w.field("max", e.hist->max());
        break;
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_series_json(std::ostream& os, const Registry& registry,
                       const Sampler& sampler) {
  JsonWriter w(os);
  w.begin_object();
  w.field("samples_taken", sampler.samples_taken());
  w.key("series").begin_array();
  for (const Sampler::Series& s : sampler.series()) {
    const MetricEntry& e = registry.entries()[s.entry_index];
    w.begin_object();
    write_entry_meta(w, e);
    w.key("points").begin_array();
    s.for_each([&](const SeriesPoint& p) {
      w.begin_array();
      w.value(static_cast<std::int64_t>(p.t));
      w.value(p.v);
      w.end_array();
    });
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_series_csv(std::ostream& os, const Registry& registry,
                      const Sampler& sampler) {
  os << "metric,labels,t_ns,value\n";
  for (const Sampler::Series& s : sampler.series()) {
    const MetricEntry& e = registry.entries()[s.entry_index];
    const std::string labels = labels_text(e.labels);
    s.for_each([&](const SeriesPoint& p) {
      os << e.name << ',' << labels << ',' << p.t << ',' << p.v << '\n';
    });
  }
}

// A stream that failed to open ignores the writes; flushing reports a
// failure to open and a failed write alike.
bool export_chrome_trace(const std::string& path, const Tracer& tracer) {
  std::ofstream f(path);
  write_chrome_trace(f, tracer);
  return f.flush().good();
}

bool export_metrics_json(const std::string& path, const Registry& registry) {
  std::ofstream f(path);
  write_metrics_json(f, registry);
  return f.flush().good();
}

bool export_series_csv(const std::string& path, const Registry& registry,
                       const Sampler& sampler) {
  std::ofstream f(path);
  write_series_csv(f, registry, sampler);
  return f.flush().good();
}

}  // namespace repro::obs
