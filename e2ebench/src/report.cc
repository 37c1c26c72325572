#include "report.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace tgm::e2e {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"job_s", "s"},
      {"events_per_s", "events/s"},
      {"latency_p50_us", "us"},
      {"latency_p99_us", "us"},
      {"precision", "ratio"},
      {"recall", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"api.ingest_s", "s"},
      {"api.ingest_events_per_s", "events/s"},
      {"api.load_query_s", "s"},
      {"api.watch_register_s", "s"},
      {"temporal.events", "count"},
      {"temporal.graphs", "count"},
      {"syslog.gen_s", "s"},
      {"syslog.gen_rss_mb", "MB"},
      {"mining.mine_s.small", "s"},
      {"mining.mine_s.medium", "s"},
      {"mining.mine_s.large", "s"},
      {"mining.patterns_visited", "count"},
      {"mining.patterns_expanded", "count"},
      {"mining.naive_prunes", "count"},
      {"mining.residual_equiv_tests", "count"},
      {"mining.embedding_cap_hits", "count"},
      {"matching.subgraph_tests", "count"},
      {"matching.subgraph_prune_triggers", "count"},
      {"matching.supergraph_prune_triggers", "count"},
      {"matching.prune_yield", "ratio"},
      {"exec.cpu_s", "s"},
      {"exec.utilization", "ratio"},
      {"searcher.slowest_query_s", "s"},
      {"searcher.intervals", "count"},
      {"searcher.eval_s", "s"},
      {"stream.feed_p50_us", "us"},
      {"stream.feed_p99_us", "us"},
      {"stream.feed_p999_us", "us"},
      {"stream.alert_p999_us", "us"},
      {"stream.alerting_events", "count"},
      {"stream.alerts", "count"},
      {"stream.peak_partials", "count"},
      {"stream.seed_skip_ratio", "ratio"},
      {"evaluator.identified", "count"},
      {"evaluator.correct", "count"},
      {"evaluator.discovered", "count"},
      {"evaluator.instances", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kSpecs;
}

void Report::Set(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::Record(const std::string& key, std::string json) {
  record_.emplace_back(key, std::move(json));
}

void Report::Record(const std::string& key, std::int64_t value) {
  Record(key, std::to_string(value));
}

void Report::Record(const std::string& key, double value) {
  Record(key, JsonNumber(value));
}

void Report::RecordString(const std::string& key, std::string_view value) {
  Record(key, JsonString(value));
}

void Report::Fail(std::string what) {
  ++failed_;
  // The first failures carry the diagnosis; the rest only count.
  if (failures_.size() < 20) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    failures_.push_back(std::move(what));
  }
}

void Report::Absorb(const Report& worker) {
  attempted_ += worker.attempted_;
  failed_ += worker.failed_;
  for (const std::string& what : worker.failures_) {
    if (failures_.size() < 20) failures_.push_back(what);
  }
}

std::string Report::RunRecordJson() const {
  std::string out = "{\"run_record\": {";
  for (std::size_t i = 0; i < record_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(record_[i].first) + ": " + record_[i].second;
  }
  out += record_.empty() ? "\"failures\": [" : ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(failures_[i]);
  }
  out += "]}}";
  return out;
}

std::string Report::ResultJson(const std::vector<MetricSpec>& specs,
                               bool missing_is_zero) {
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    auto it = metrics_.find(spec.name);
    double value = 0.0;
    if (it != metrics_.end()) {
      value = it->second;
    } else if (!missing_is_zero) {
      Fail(std::string("metric not measured: ") + spec.name);
    }
    if (!std::isfinite(value)) {
      Fail(std::string("metric is not finite: ") + spec.name);
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(spec.name) + ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(spec.unit) + "}";
  }
  return "{\"correct\": " + std::string(failed_ == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
         metrics + "}}";
}

std::string JsonNumber(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace tgm::e2e
