#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "report.h"

namespace tgm::e2e {

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PercentileUs(std::vector<std::int64_t> samples, double p) {
  if (samples.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return static_cast<double>(samples[rank]) * 1e-3;
}

std::string JsonArray(const std::vector<std::int64_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

bool UnitTimes::Aligned() const {
  for (const auto& pass : passes_) {
    if (pass.size() != passes_.front().size()) return false;
  }
  return true;
}

std::vector<std::int64_t> UnitTimes::Medians() const {
  if (passes_.empty() || !Aligned()) return {};
  std::vector<std::int64_t> medians(passes_.front().size());
  std::vector<std::int64_t> column(passes_.size());
  for (std::size_t u = 0; u < medians.size(); ++u) {
    for (std::size_t p = 0; p < passes_.size(); ++p) column[p] = passes_[p][u];
    std::sort(column.begin(), column.end());
    const std::size_t n = column.size();
    medians[u] = n % 2 == 1 ? column[n / 2]
                            : (column[n / 2 - 1] + column[n / 2]) / 2;
  }
  return medians;
}

double UnitTimes::Seconds() const {
  std::int64_t total = 0;
  for (std::int64_t ns : Medians()) total += ns;
  return e2e::Seconds(total);
}

std::vector<double> UnitTimes::PassSeconds() const {
  std::vector<double> out;
  for (const auto& pass : passes_) {
    std::int64_t total = 0;
    for (std::int64_t ns : pass) total += ns;
    out.push_back(e2e::Seconds(total));
  }
  return out;
}

double SpanStats::LayerSeconds(const char* root, const char* name) const {
  return Median(PerRoot(root, name, [&](std::size_t i) {
    return e2e::Seconds(self_[i]);
  }));
}

double SpanStats::LayerWork(const char* root, const char* name) const {
  return Median(PerRoot(root, name, [&](std::size_t i) {
    return static_cast<double>(spans_[i].work);
  }));
}

double SpanStats::LayerCalls(const char* root, const char* name) const {
  return Median(PerRoot(root, name, [](std::size_t) { return 1.0; }));
}

double SpanStats::SlowestQuerySeconds(const char* root) const {
  std::map<std::int32_t, std::map<std::int32_t, double>> by_root;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int32_t r = roots_[i];
    if (static_cast<std::size_t>(r) == i || !Named(i, "Search")) continue;
    if (root != nullptr && !Named(static_cast<std::size_t>(r), root)) continue;
    by_root[r][spans_[i].ref] += e2e::Seconds(self_[i]);
  }
  std::vector<double> slowest;
  for (const auto& [r, per_query] : by_root) {
    double worst = 0.0;
    for (const auto& [q, s] : per_query) worst = std::max(worst, s);
    slowest.push_back(worst);
  }
  return Median(slowest);
}

double SpanStats::FeedPercentileUs(double p, bool alerting_only) const {
  std::map<std::int32_t, std::vector<std::int64_t>> by_root;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int32_t r = roots_[i];
    if (static_cast<std::size_t>(r) == i || !Named(i, "Feed")) continue;
    if (!Named(static_cast<std::size_t>(r), "job")) continue;
    if (alerting_only && spans_[i].work == 0) continue;
    by_root[r].push_back(spans_[i].duration_ns());
  }
  std::vector<double> values;
  for (auto& [r, samples] : by_root) {
    values.push_back(PercentileUs(std::move(samples), p));
  }
  return Median(values);
}

}  // namespace tgm::e2e
