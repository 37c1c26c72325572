#ifndef TGM_E2EBENCH_MEASURE_H_
#define TGM_E2EBENCH_MEASURE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "trace.h"

namespace tgm::e2e {

/// Process CPU seconds (user + system, all threads) so far.
double CpuSeconds();
/// Process peak resident set size (high-water mark), in MB.
double PeakRssMb();

double Median(std::vector<double> values);
/// Nearest-rank percentile of nanosecond samples, in microseconds.
double PercentileUs(std::vector<std::int64_t> samples, double p);

std::string JsonArray(const std::vector<std::int64_t>& values);
std::string JsonArray(const std::vector<double>& values);

/// Consecutive lap times of one pass over a phase. Laps tile the phase, so
/// they sum to its wall time.
class Laps {
 public:
  Laps() : last_ns_(NowNs()) {}
  void Lap() {
    const std::int64_t now = NowNs();
    laps_.push_back(now - last_ns_);
    last_ns_ = now;
  }
  std::vector<std::int64_t>& laps() { return laps_; }

 private:
  std::int64_t last_ns_;
  std::vector<std::int64_t> laps_;
};

/// Unit times of repeated passes over one phase. A unit is one call, or one
/// fixed segment of a call sequence; every pass has the same units. The
/// phase's time is the sum over units of each unit's median across passes,
/// so interference from other processes that slows one pass for a moment
/// does not move it.
class UnitTimes {
 public:
  void Add(std::vector<std::int64_t> pass) { passes_.push_back(std::move(pass)); }
  void Add(Laps& laps) { Add(std::move(laps.laps())); }
  std::size_t passes() const { return passes_.size(); }
  /// True if every pass has the same number of units.
  bool Aligned() const;
  /// Each unit's median across passes (empty unless Aligned()).
  std::vector<std::int64_t> Medians() const;
  /// Sum of the unit medians, in seconds.
  double Seconds() const;
  /// Each pass's total, in seconds.
  std::vector<double> PassSeconds() const;

 private:
  std::vector<std::vector<std::int64_t>> passes_;
};

/// Repetition control of a timed phase: at least `min_reps`, then more while
/// the phase has run for less than `seconds`.
class RepClock {
 public:
  RepClock(double seconds, int min_reps)
      : seconds_(seconds), min_reps_(min_reps), start_ns_(NowNs()) {}
  bool Next(int rep) const {
    if (rep < min_reps_) return true;
    return rep < kMaxReps && Seconds(NowNs() - start_ns_) < seconds_;
  }

 private:
  static constexpr int kMaxReps = 1000;
  double seconds_;
  int min_reps_;
  std::int64_t start_ns_;
};

/// Per-layer numbers derived from the spans of a traced run.
class SpanStats {
 public:
  explicit SpanStats(const Tracer& tracer)
      : spans_(tracer.spans()),
        self_(tracer.SelfTimesNs()),
        roots_(tracer.Roots()) {}

  /// For every root span named `root` (nullptr: any root) that contains at
  /// least one span named `name`, the sum of `value(span index)` over those
  /// spans.
  template <typename Fn>
  std::vector<double> PerRoot(const char* root, const char* name,
                              Fn value) const {
    std::vector<double> sums;
    std::int32_t last_root = -1;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int32_t r = roots_[i];
      if (static_cast<std::size_t>(r) == i || !Named(i, name)) continue;
      if (root != nullptr && !Named(static_cast<std::size_t>(r), root)) continue;
      // Spans of one root are contiguous, so a new root starts a new sum.
      if (r != last_root) sums.push_back(0.0);
      last_root = r;
      sums.back() += value(i);
    }
    return sums;
  }

  /// Median over roots of the summed self time of spans named `name`.
  double LayerSeconds(const char* root, const char* name) const;
  /// Median over roots of the summed `work` of spans named `name`.
  double LayerWork(const char* root, const char* name) const;
  /// Median over roots of the number of spans named `name`.
  double LayerCalls(const char* root, const char* name) const;
  /// Median over roots of the slowest query's summed Search time.
  double SlowestQuerySeconds(const char* root) const;
  /// Median over "job" roots of a percentile of Feed-span durations; only
  /// calls that delivered an alert (work > 0) when `alerting_only`.
  double FeedPercentileUs(double p, bool alerting_only) const;

  const Span& span(std::size_t i) const { return spans_[i]; }

 private:
  bool Named(std::size_t i, const char* name) const {
    return std::strcmp(spans_[i].name, name) == 0;
  }

  const std::vector<Span>& spans_;
  std::vector<std::int64_t> self_;
  std::vector<std::int32_t> roots_;
};

}  // namespace tgm::e2e

#endif  // TGM_E2EBENCH_MEASURE_H_
