#ifndef TGM_E2EBENCH_REPORT_H_
#define TGM_E2EBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.h"

namespace tgm::e2e {

/// A metric name with its unit, as BENCHMARK.json lists it.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints, on every workload.
const std::vector<MetricSpec>& EndToEndMetrics();
/// The per-layer metrics every traced run prints, on every workload (0 where
/// the workload does not enter the layer).
const std::vector<MetricSpec>& PerLayerMetrics();

/// What one run measured and checked: metric values, the run record, and
/// every operation attempted with the ones that failed.
class Report {
 public:
  /// Sets a metric; its unit comes from the metric tables.
  void Set(const std::string& name, double value);

  /// Adds a run-record field; `json` is a JSON value (number, string, ...).
  void Record(const std::string& key, std::string json);
  void Record(const std::string& key, std::int64_t value);
  void Record(const std::string& key, double value);
  void RecordString(const std::string& key, std::string_view value);

  /// Counts one program call; a non-OK status is a failed operation.
  bool Op(const Status& status, const char* what) {
    ++attempted_;
    if (status.ok()) return true;
    Fail(std::string(what) + ": " + status.ToString());
    return false;
  }
  /// Counts one output check; a false `ok` is a failed operation.
  bool Check(bool ok, const char* what) {
    ++attempted_;
    if (!ok) Fail(what);
    return ok;
  }
  void Fail(std::string what);
  /// Adds the operations of `worker`, a worker thread's report of a
  /// parallel phase (only its Op and Check counts are kept).
  void Absorb(const Report& worker);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

  /// The run-record line: {"run_record": {...}}.
  std::string RunRecordJson() const;
  /// The result line: correct/attempted/failed plus the metrics of `specs`.
  /// A metric the run did not set is a failure of the benchmark itself,
  /// except per-layer metrics of a layer the workload never enters, which
  /// `missing_is_zero` reports as 0.
  std::string ResultJson(const std::vector<MetricSpec>& specs,
                         bool missing_is_zero);

 private:
  std::map<std::string, double> metrics_;
  std::vector<std::pair<std::string, std::string>> record_;
  std::vector<std::string> failures_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Shortest round-trip decimal form of a finite double.
std::string JsonNumber(double value);
std::string JsonString(std::string_view text);

}  // namespace tgm::e2e

#endif  // TGM_E2EBENCH_REPORT_H_
