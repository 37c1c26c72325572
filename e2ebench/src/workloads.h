#ifndef TGM_E2EBENCH_WORKLOADS_H_
#define TGM_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "api/status.h"
#include "report.h"
#include "trace.h"

namespace tgm::e2e {

/// Input sizes of the three workloads. Every size is fixed: the amount of
/// work never depends on timing.
struct Sizes {
  /// discover: closed-environment runs per behaviour, background graphs,
  /// and behaviour instances in the scored test log. Kept small: on a
  /// shared 4-vCPU VM a pass varied 14% between runs at 10 runs × 50
  /// graphs and 3% at 8 × 30 (see README.md, Sizes).
  int runs_per_behavior = 8;
  int background_graphs = 30;
  int test_instances = 240;
  /// The training corpus the committed query artifacts were mined from
  /// (same generator seed and miner settings as discover, more runs).
  int query_runs_per_behavior = 10;
  int query_background_graphs = 50;
  /// hunt: test-log days in the searched archive, and behaviour instances
  /// per day. Every worker searches every worker-th day; many short days
  /// keep the workers' shares of about the same cost.
  int hunt_days = 36;
  int hunt_day_instances = 16;
  /// watch: behaviour instances in the day every host (one per worker) is
  /// fed.
  int watch_day_instances = 30;
  /// watch: events fed to every host during set-up, before the timed phase.
  std::size_t warmup_events = 2400;
};

Sizes FullSizes();
/// The benchmark's own test: the same checks on small inputs.
Sizes SmokeSizes();

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  /// The timed phase repeats until it has run this long (with a floor on
  /// the repetitions, so every median has several samples).
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// Miner threads of discover, and worker threads of hunt and watch.
  int miner_threads = 1;
  /// Directory of the committed query artifacts hunt and watch load.
  std::string queries_dir;
  /// Chrome trace output of the traced run; empty writes none.
  std::string trace_out;
};

/// Runs one workload ("discover", "hunt" or "watch"), filling `report` with
/// its metrics, run record and checks. Spans go to `tracer`.
void RunWorkload(const Options& options, Report& report, Tracer& tracer);

/// Mines the 12 behaviour queries with discover's settings over the query
/// training corpus (Sizes::query_runs_per_behavior and
/// query_background_graphs) and writes them as `<dir>/<behaviour>.tquery`.
[[nodiscard]] Status RegenerateQueries(const Options& options,
                                       const std::string& dir);

/// Loads every committed artifact in a fresh session and validates it.
void CheckQueries(const Options& options, Report& report);

}  // namespace tgm::e2e

#endif  // TGM_E2EBENCH_WORKLOADS_H_
