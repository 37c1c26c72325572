#include "workloads.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "inputs.h"
#include "measure.h"
#include "query/evaluator.h"
#include "query/interest.h"
#include "query/pipeline.h"
#include "syslog/behaviors.h"

namespace tgm::e2e {

Sizes FullSizes() { return Sizes{}; }

Sizes SmokeSizes() {
  Sizes sizes;
  sizes.runs_per_behavior = 4;
  sizes.background_graphs = 12;
  sizes.query_runs_per_behavior = 4;
  sizes.query_background_graphs = 12;
  sizes.test_instances = 24;
  sizes.hunt_days = 2;
  sizes.hunt_day_instances = 24;
  sizes.watch_day_instances = 24;
  sizes.warmup_events = 2000;
  return sizes;
}

namespace {

/// Set-up passes before the timed job. Watch sets up once per repetition,
/// and at least this often; discover adds one set-up pass after every
/// mining pass, so its ~20 ms set-up is sampled over the whole run.
constexpr int kSetupReps = 5;
/// Floor on the timed repetitions, so every median has three samples.
constexpr int kMinJobReps = 3;
/// Search must never truncate: watch checks Search against the stream.
constexpr std::int64_t kUncapped = std::numeric_limits<std::int64_t>::max();
constexpr const char* kTestLogCorpus = "test/log";

api::SessionOptions UncappedOptions() {
  api::SessionOptions options;
  options.search_match_cap = kUncapped;
  return options;
}

/// Reads the 12 committed artifacts (text only; parsing is the program's
/// LoadQuery, timed in set-up).
std::vector<std::string> ReadArtifacts(const std::string& dir, Report& report) {
  std::vector<std::string> texts(kNumBehaviors);
  for (int b = 0; b < kNumBehaviors; ++b) {
    std::ifstream in(ArtifactPath(dir, b));
    std::stringstream buffer;
    buffer << in.rdbuf();
    report.Check(in.good() && !buffer.str().empty(),
                 "query artifact is readable");
    texts[static_cast<std::size_t>(b)] = buffer.str();
  }
  return texts;
}

/// Loads the artifacts into `session`; checks each is the artifact of its
/// behaviour.
std::vector<api::BehaviorQuery> LoadQueries(
    api::Session& session, const std::vector<std::string>& texts,
    Report& report, Tracer& tracer) {
  std::vector<api::BehaviorQuery> queries(texts.size());
  for (std::size_t q = 0; q < texts.size(); ++q) {
    std::istringstream in(texts[q]);
    StatusOr<api::BehaviorQuery> loaded = [&] {
      auto span = tracer.Open("LoadQuery", static_cast<std::int32_t>(q));
      return session.LoadQuery(in);
    }();
    if (!report.Op(loaded.status(), "LoadQuery")) continue;
    report.Check(loaded->provenance().positives ==
                     PositivesCorpus(static_cast<int>(q)),
                 "artifact was mined for its behaviour");
    queries[q] = *std::move(loaded);
  }
  return queries;
}

std::int64_t PatternCount(const std::vector<api::BehaviorQuery>& queries) {
  std::int64_t n = 0;
  for (const api::BehaviorQuery& q : queries) {
    n += static_cast<std::int64_t>(q.size());
  }
  return n;
}

StatusOr<std::vector<Interval>> TracedSearch(const api::Session& session,
                                             const api::BehaviorQuery& query,
                                             const std::string& corpus,
                                             std::int32_t ref, Tracer& tracer) {
  auto span = tracer.Open("Search", ref);
  StatusOr<std::vector<Interval>> found = session.Search(query, corpus);
  if (found.ok()) span.set_work(static_cast<std::int64_t>(found->size()));
  return found;
}

void TracedIngest(api::Session& session, const std::string& corpus,
                  const Records& records, std::int32_t ref, Report& report,
                  Tracer& tracer) {
  auto span = tracer.Open("Ingest", ref);
  span.set_work(static_cast<std::int64_t>(records.size()));
  report.Op(session.Ingest(corpus, records).status(), "Ingest");
}

/// §6.2 accuracy per behaviour, summed over days; reported as Table 2's
/// average over behaviours.
class Accuracy {
 public:
  void Evaluate(int b, const std::vector<Interval>& matches,
                const std::vector<TruthInstance>& truth, Tracer& tracer) {
    auto span = tracer.Open("EvaluateAccuracy", b);
    const AccuracyResult r = EvaluateAccuracy(
        matches, truth, AllBehaviors()[static_cast<std::size_t>(b)]);
    AccuracyResult& sum = per_behavior_[static_cast<std::size_t>(b)];
    sum.identified += r.identified;
    sum.correct += r.correct;
    sum.discovered += r.discovered;
    sum.instances += r.instances;
  }

  void Publish(Report& report) const {
    double precision = 0.0;
    double recall = 0.0;
    AccuracyResult total;
    for (const AccuracyResult& r : per_behavior_) {
      precision += r.precision();
      recall += r.recall();
      total.identified += r.identified;
      total.correct += r.correct;
      total.discovered += r.discovered;
      total.instances += r.instances;
    }
    report.Set("precision", precision / kNumBehaviors);
    report.Set("recall", recall / kNumBehaviors);
    report.Set("evaluator.identified", static_cast<double>(total.identified));
    report.Set("evaluator.correct", static_cast<double>(total.correct));
    report.Set("evaluator.discovered", static_cast<double>(total.discovered));
    report.Set("evaluator.instances", static_cast<double>(total.instances));
    report.Check(total.instances > 0, "ground truth has behaviour instances");
  }

 private:
  std::vector<AccuracyResult> per_behavior_ =
      std::vector<AccuracyResult>(kNumBehaviors);
};

/// Traced passes of the timed job in a traced run.
constexpr int kTracedPasses = 3;

/// In a traced run, the first repetitions alternate untraced and traced, so
/// one run yields both the per-layer spans and the tracing overhead; later
/// ones are untraced, which bounds the spans a long run keeps.
bool TracedRep(const Options& options, int rep) {
  return options.trace && rep % 2 == 1 && rep < 2 * kTracedPasses;
}

/// The timed job's passes: untraced passes give the end-to-end timings,
/// traced ones the process CPU time and, against the untraced passes that
/// make the same calls, the tracing overhead.
struct JobPasses {
  /// Wall time of every untraced pass.
  std::vector<double> untraced_s;
  /// Untraced passes that make the same calls as the traced ones.
  std::vector<double> baseline_s;
  std::vector<double> traced_s;
  std::vector<double> traced_cpu_s;

  /// Files a finished pass of `wall_s` seconds; `cpu0` is CpuSeconds() at
  /// its start. `comparable` is false for an untraced pass that makes other
  /// calls than the traced passes.
  void Add(bool traced, double wall_s, double cpu0, bool comparable = true) {
    if (!traced) {
      if (comparable) baseline_s.push_back(wall_s);
      untraced_s.push_back(wall_s);
      return;
    }
    traced_cpu_s.push_back(CpuSeconds() - cpu0);
    traced_s.push_back(wall_s);
  }
};

/// A worker thread's own tracer and report; a parallel phase joins them
/// into the run's once its threads have ended.
struct Worker {
  Tracer tracer;
  Report report;
};

/// The worker threads of one parallel phase.
class Workers {
 public:
  Workers(int count, bool trace) : workers_(static_cast<std::size_t>(count)) {
    for (Worker& w : workers_) w.tracer.set_enabled(trace);
  }

  /// Pre-sizes every worker's span store.
  void Reserve(std::size_t spans) {
    for (Worker& w : workers_) w.tracer.Reserve(spans);
  }

  /// Runs `work(index, worker)` on one thread per worker and waits for all.
  template <typename Fn>
  void Run(Fn work) {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      threads.emplace_back([&work, this, i] { work(i, workers_[i]); });
    }
    for (std::thread& t : threads) t.join();
  }

  /// Adds the workers' operations to `report` and their spans to `tracer`,
  /// under the span open there.
  void Join(Report& report, Tracer& tracer) const {
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      report.Absorb(workers_[i].report);
      tracer.Adopt(workers_[i].tracer, static_cast<std::int32_t>(i + 1));
    }
  }

 private:
  std::vector<Worker> workers_;
};

/// The timing metrics every workload reports: set-up, the timed job, and
/// percentiles of the job's latency samples.
void PublishTimings(double setup_s, const std::vector<double>& setup_passes,
                    double job_s, const std::vector<double>& job_passes,
                    const std::vector<std::int64_t>& latency_ns,
                    double work_units, Report& report) {
  report.Set("setup_s", setup_s);
  report.Set("job_s", job_s);
  report.Set("events_per_s", job_s > 0 ? work_units / job_s : 0.0);
  report.Set("latency_p50_us", PercentileUs(latency_ns, 0.50));
  report.Set("latency_p99_us", PercentileUs(latency_ns, 0.99));
  report.Record("setup_samples", static_cast<std::int64_t>(setup_passes.size()));
  report.Record("setup_s_passes", JsonArray(setup_passes));
  report.Record("job_samples", static_cast<std::int64_t>(job_passes.size()));
  report.Record("job_s_passes", JsonArray(job_passes));
  report.Record("latency_samples", static_cast<std::int64_t>(latency_ns.size()));
}

/// The per-layer metrics every workload derives the same way. The api and
/// temporal ones come from set-up's spans only: calls made to check or
/// score results are not set-up.
void PublishCommonLayers(const SpanStats& spans, const JobPasses& job,
                         int threads, Report& report) {
  const double ingest_s = spans.LayerSeconds("setup", "Ingest");
  const double ingested = spans.LayerWork("setup", "Ingest");
  report.Set("api.ingest_s", ingest_s);
  report.Set("api.ingest_events_per_s",
             ingest_s > 0 ? ingested / ingest_s : 0.0);
  report.Set("temporal.events", ingested);
  report.Set("temporal.graphs", spans.LayerCalls("setup", "Ingest"));
  report.Set("api.load_query_s", spans.LayerSeconds("setup", "LoadQuery"));
  report.Set("api.watch_register_s", spans.LayerSeconds("setup", "Watch"));
  const double wall_s = Median(job.traced_s);
  const double cpu_s = Median(job.traced_cpu_s);
  report.Set("exec.cpu_s", cpu_s);
  report.Set("exec.utilization",
             wall_s > 0 ? cpu_s / (wall_s * threads) : 0.0);
  const double untraced_s = Median(job.baseline_s);
  report.Set("trace.overhead_ratio",
             untraced_s > 0 ? wall_s / untraced_s : 0.0);
  report.Record("traced_job_s", JsonArray(job.traced_s));
}

// ---------------------------------------------------------------------------
// discover: ingest the training corpora and a test log, mine all 12
// behaviours (timed), score the queries over the test log.

std::vector<api::MineSpec> DiscoverSpecs(const Options& options,
                                         const InterestModel* interest) {
  const PipelineConfig table2;  // the Table 2 pipeline's miner and ranking
  MinerConfig config = table2.miner;
  config.max_edges = table2.query_size;
  config.num_threads = options.miner_threads;
  config.root_batch = 1;
  config.max_millis = 0;
  std::vector<api::MineSpec> specs(kNumBehaviors);
  for (int b = 0; b < kNumBehaviors; ++b) {
    api::MineSpec& spec = specs[static_cast<std::size_t>(b)];
    spec.positives = PositivesCorpus(b);
    spec.negatives = kBackgroundCorpus;
    spec.config = config;
    spec.top_patterns = table2.top_patterns;
    spec.interest = interest;
    spec.window_slack = table2.window_slack;
  }
  return specs;
}

struct DiscoverSession {
  std::unique_ptr<api::Session> session;
  /// Appendix M ranking over this session's own label ids.
  std::unique_ptr<InterestModel> interest;
};

/// One lap per call: the session, each Ingest, the interest model.
DiscoverSession SetUpDiscover(const Training& training, Laps& laps,
                              Report& report, Tracer& tracer) {
  DiscoverSession s;
  s.session = std::make_unique<api::Session>(UncappedOptions());
  laps.Lap();
  for (int b = 0; b < kNumBehaviors; ++b) {
    for (const Records& run : training.positives[static_cast<std::size_t>(b)]) {
      TracedIngest(*s.session, PositivesCorpus(b), run, b, report, tracer);
      laps.Lap();
    }
  }
  for (const Records& graph : training.background) {
    TracedIngest(*s.session, kBackgroundCorpus, graph, -1, report, tracer);
    laps.Lap();
  }
  auto span = tracer.Open("InterestModel");
  // InterestModel counts labels over graph vectors; copy the session's
  // graphs so the label ids are the session's own.
  std::vector<std::vector<TemporalGraph>> sets;
  for (int b = 0; b <= kNumBehaviors; ++b) {
    const std::string corpus =
        b < kNumBehaviors ? PositivesCorpus(b) : kBackgroundCorpus;
    StatusOr<std::span<const TemporalGraph* const>> graphs =
        s.session->Corpus(corpus);
    if (!report.Op(graphs.status(), "Corpus")) continue;
    sets.emplace_back();
    for (const TemporalGraph* g : *graphs) sets.back().push_back(*g);
  }
  std::vector<const std::vector<TemporalGraph>*> set_ptrs;
  for (const auto& set : sets) set_ptrs.push_back(&set);
  s.interest = std::make_unique<InterestModel>(set_ptrs, s.session->dict());
  laps.Lap();
  return s;
}

/// Search-shape counters of one mining pass, per behaviour; they must
/// repeat exactly across passes and between Mine and MineRaw.
struct MineShape {
  std::vector<std::int64_t> visited = std::vector<std::int64_t>(kNumBehaviors);
  std::vector<std::int64_t> expanded = std::vector<std::int64_t>(kNumBehaviors);
  friend bool operator==(const MineShape&, const MineShape&) = default;
};

/// True if two runs did the same work: every MinerStats counter is equal
/// (the wall time need not be).
bool SameWork(const MinerStats& a, const MinerStats& b) {
  return a.patterns_visited == b.patterns_visited &&
         a.patterns_expanded == b.patterns_expanded &&
         a.naive_prunes == b.naive_prunes &&
         a.subgraph_prune_triggers == b.subgraph_prune_triggers &&
         a.supergraph_prune_triggers == b.supergraph_prune_triggers &&
         a.subgraph_tests == b.subgraph_tests &&
         a.residual_equiv_tests == b.residual_equiv_tests &&
         a.embedding_cap_hits == b.embedding_cap_hits &&
         a.truncated() == b.truncated();
}

void RunDiscover(const Options& options, const Sizes& sizes, Report& report,
                 Tracer& tracer) {
  const std::int64_t gen_start = NowNs();
  const Isomorph iso = Isomorph::FromSeed(options.seed);
  const Training training = GenerateTraining(
      sizes.runs_per_behavior, sizes.background_graphs, iso);
  const Day test_log = GenerateDay(
      sizes.test_instances, kDiscoverTestSeedBase + options.seed, iso);
  report.Set("syslog.gen_s", Seconds(NowNs() - gen_start));
  report.Set("syslog.gen_rss_mb", PeakRssMb());

  tracer.set_enabled(options.trace);
  DiscoverSession s;
  UnitTimes setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = DiscoverSession{};
    auto root = tracer.Open("setup", rep);
    Laps laps;
    s = SetUpDiscover(training, laps, report, tracer);
    setup.Add(laps);
  }

  // The first pass calls Mine, for the queries the scoring pass searches
  // with. The untraced run calls Mine in every pass. The traced run calls
  // MineRaw in its later passes, traced and untraced alike, so the tracing
  // overhead compares the same calls and every MineRaw pass's MinerStats
  // can be checked against the others.
  const std::vector<api::MineSpec> specs =
      DiscoverSpecs(options, s.interest.get());
  JobPasses mine;
  UnitTimes mine_units;  // untraced passes, one unit per behaviour
  std::vector<MinerStats> first_stats;  // per behaviour, first MineRaw pass
  std::vector<api::BehaviorQuery> queries;
  std::optional<MineShape> first_shape;
  std::int64_t truncated = 0;
  RepClock clock(options.seconds, kMinJobReps);
  for (int rep = 0; clock.Next(rep); ++rep) {
    const bool traced = TracedRep(options, rep);
    const bool raw = options.trace && rep > 0;
    tracer.set_enabled(traced);
    MineShape shape;
    std::vector<MinerStats> stats(kNumBehaviors);
    std::vector<api::BehaviorQuery> mined(kNumBehaviors);
    const double cpu0 = CpuSeconds();
    Laps laps;
    {
      auto root = tracer.Open("job", rep);
      for (std::size_t b = 0; b < specs.size(); ++b) {
        if (raw) {
          auto span = tracer.Open("MineRaw", static_cast<std::int32_t>(b));
          StatusOr<MineResult> result = s.session->MineRaw(specs[b]);
          if (report.Op(result.status(), "MineRaw")) {
            shape.visited[b] = result->stats.patterns_visited;
            shape.expanded[b] = result->stats.patterns_expanded;
            truncated += result->stats.truncated() ? 1 : 0;
            stats[b] = result->stats;
          }
        } else {
          StatusOr<api::BehaviorQuery> query = s.session->Mine(specs[b]);
          if (report.Op(query.status(), "Mine")) {
            shape.visited[b] = query->provenance().patterns_visited;
            shape.expanded[b] = query->provenance().patterns_expanded;
            truncated += query->provenance().truncated ? 1 : 0;
            mined[b] = *std::move(query);
          }
        }
        laps.Lap();
      }
    }
    std::int64_t wall = 0;
    for (std::int64_t ns : laps.laps()) wall += ns;
    mine.Add(traced, Seconds(wall), cpu0,
             /*comparable=*/raw || !options.trace);
    if (!traced) mine_units.Add(laps);
    // One more set-up pass after every mining pass samples set-up over the
    // whole run. It is untraced: the set-up layers come from the first
    // kSetupReps passes.
    {
      tracer.set_enabled(false);
      Laps setup_laps;
      const DiscoverSession extra =
          SetUpDiscover(training, setup_laps, report, tracer);
      setup.Add(setup_laps);
    }
    if (rep == 0) queries = std::move(mined);
    if (raw && first_stats.empty()) first_stats = stats;
    if (raw) {
      for (std::size_t b = 0; b < stats.size(); ++b) {
        report.Check(SameWork(stats[b], first_stats[b]),
                     "every MinerStats counter repeats across MineRaw passes");
      }
    }
    if (!first_shape) first_shape = shape;
    report.Check(shape == *first_shape,
                 "mining work repeats exactly across passes");
  }
  report.Check(truncated == 0, "no Mine call reports truncated");

  // Scoring pass: the first pass's queries over the test log. The test log
  // is fresh content per seed, so it is ingested here, outside set-up.
  tracer.set_enabled(options.trace);
  Accuracy accuracy;
  std::int64_t intervals = 0;
  {
    auto root = tracer.Open("score");
    TracedIngest(*s.session, kTestLogCorpus, test_log.events, -1, report,
                 tracer);
    for (int b = 0; b < kNumBehaviors; ++b) {
      StatusOr<std::vector<Interval>> found =
          TracedSearch(*s.session, queries[static_cast<std::size_t>(b)],
                       kTestLogCorpus, b, tracer);
      if (!report.Op(found.status(), "Search")) continue;
      intervals += static_cast<std::int64_t>(found->size());
      accuracy.Evaluate(b, *found, test_log.truth, tracer);
    }
  }
  accuracy.Publish(report);

  // Input events the 12 Mine calls read: each behaviour's runs plus the
  // shared background.
  const std::int64_t background_events = EventCount(training.background);
  std::int64_t training_events = background_events;
  std::int64_t mined_events = 0;
  for (const auto& runs : training.positives) {
    training_events += EventCount(runs);
    mined_events += EventCount(runs) + background_events;
  }
  report.Check(setup.Aligned() && mine_units.Aligned(),
               "repetitions run the same calls");
  PublishTimings(setup.Seconds(), setup.PassSeconds(), mine_units.Seconds(),
                 mine_units.PassSeconds(), mine_units.Medians(),
                 static_cast<double>(mined_events), report);

  if (options.trace) {
    const SpanStats spans(tracer);
    PublishCommonLayers(spans, mine, options.miner_threads, report);
    for (SizeClass c :
         {SizeClass::kSmall, SizeClass::kMedium, SizeClass::kLarge}) {
      report.Set("mining.mine_s." + SizeClassName(c),
                 Median(spans.PerRoot("job", "MineRaw", [&](std::size_t i) {
                   const Span& span = spans.span(i);
                   const BehaviorKind kind =
                       AllBehaviors()[static_cast<std::size_t>(span.ref)];
                   return BehaviorSizeClass(kind) == c
                              ? Seconds(span.duration_ns())
                              : 0.0;
                 })));
    }
    MinerStats m;
    for (const MinerStats& b : first_stats) m.MergeFrom(b);
    report.Set("mining.patterns_visited",
               static_cast<double>(m.patterns_visited));
    report.Set("mining.patterns_expanded",
               static_cast<double>(m.patterns_expanded));
    report.Set("mining.naive_prunes", static_cast<double>(m.naive_prunes));
    report.Set("mining.residual_equiv_tests",
               static_cast<double>(m.residual_equiv_tests));
    report.Set("mining.embedding_cap_hits",
               static_cast<double>(m.embedding_cap_hits));
    report.Set("matching.subgraph_tests", static_cast<double>(m.subgraph_tests));
    report.Set("matching.subgraph_prune_triggers",
               static_cast<double>(m.subgraph_prune_triggers));
    report.Set("matching.supergraph_prune_triggers",
               static_cast<double>(m.supergraph_prune_triggers));
    const std::int64_t triggers =
        m.subgraph_prune_triggers + m.supergraph_prune_triggers;
    report.Set("matching.prune_yield",
               m.subgraph_tests > 0 ? static_cast<double>(triggers) /
                                          static_cast<double>(m.subgraph_tests)
                                    : 0.0);
    report.Set("searcher.slowest_query_s", spans.SlowestQuerySeconds("score"));
    report.Set("searcher.intervals", spans.LayerWork("score", "Search"));
    report.Set("searcher.eval_s", spans.LayerSeconds("score", "Search"));
  }

  report.Record("runs_per_behavior", std::int64_t{sizes.runs_per_behavior});
  report.Record("background_graphs", std::int64_t{sizes.background_graphs});
  report.Record("training_events", training_events);
  report.Record("mined_events_per_pass", mined_events);
  report.Record("test_instances", std::int64_t{sizes.test_instances});
  report.Record("test_log_content_seed",
                static_cast<std::int64_t>(test_log.content_seed));
  report.Record("test_log_events",
                static_cast<std::int64_t>(test_log.events.size()));
  report.Record("miner_threads", std::int64_t{options.miner_threads});
  report.Record("root_batch", std::int64_t{1});
  report.Record("query_size", std::int64_t{PipelineConfig{}.query_size});
  report.Record("top_patterns", std::int64_t{PipelineConfig{}.top_patterns});
  report.Record("patterns", PatternCount(queries));
  report.Record("search_intervals", intervals);
  report.Record("patterns_visited",
                JsonArray(first_shape ? first_shape->visited
                                      : std::vector<std::int64_t>{}));
  report.Set("peak_rss_mb", PeakRssMb());
}

// ---------------------------------------------------------------------------
// hunt: every worker is an analyst with its own session (a Session has one
// caller) holding the committed queries and its share of the archive, every
// worker-th day. A pass searches every day with every query (timed).

void RunHunt(const Options& options, const Sizes& sizes, Report& report,
             Tracer& tracer) {
  const int workers = options.miner_threads;
  const std::vector<std::string> artifacts =
      ReadArtifacts(options.queries_dir, report);
  const std::int64_t gen_start = NowNs();
  std::vector<Day> days;
  std::vector<std::string> corpora;
  std::vector<std::int64_t> day_seeds;
  std::int64_t archive_events = 0;
  for (int d = 0; d < sizes.hunt_days; ++d) {
    const std::uint64_t day = static_cast<std::uint64_t>(d);
    days.push_back(GenerateDay(sizes.hunt_day_instances, kHuntDaySeed + day,
                               Isomorph::FromSeed(options.seed * 64 + day)));
    corpora.push_back("archive/day" + std::to_string(d));
    day_seeds.push_back(static_cast<std::int64_t>(kHuntDaySeed + day));
    archive_events += static_cast<std::int64_t>(days.back().events.size());
  }
  report.Set("syslog.gen_s", Seconds(NowNs() - gen_start));
  report.Set("syslog.gen_rss_mb", PeakRssMb());

  // Worker w's share of the archive: days w, w + workers, ...
  const auto n_workers = static_cast<std::size_t>(workers);
  auto my_days = [&](std::size_t w) {
    std::vector<std::size_t> mine;
    for (std::size_t d = w; d < days.size(); d += n_workers) mine.push_back(d);
    return mine;
  };

  // Set-up: every worker builds its own session at once.
  std::vector<std::unique_ptr<api::Session>> sessions(n_workers);
  std::vector<std::vector<api::BehaviorQuery>> queries(sessions.size());
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (auto& session : sessions) session.reset();
    tracer.set_enabled(options.trace);
    auto root = tracer.Open("setup", rep);
    Workers pool(workers, options.trace);
    const std::int64_t start = NowNs();
    pool.Run([&](std::size_t w, Worker& me) {
      sessions[w] = std::make_unique<api::Session>(UncappedOptions());
      queries[w] = LoadQueries(*sessions[w], artifacts, me.report, me.tracer);
      for (std::size_t d : my_days(w)) {
        TracedIngest(*sessions[w], corpora[d], days[d].events,
                     static_cast<std::int32_t>(d), me.report, me.tracer);
      }
    });
    setup_s.push_back(Seconds(NowNs() - start));
    pool.Join(report, tracer);
  }

  const std::size_t n_days = days.size();
  const std::size_t n_queries = queries.front().size();
  const std::size_t n_units = n_days * n_queries;
  std::vector<std::vector<Interval>> first;  // by unit: day * n_queries + query
  JobPasses search;
  std::vector<std::int64_t> latency_ns;  // every untraced Search call
  RepClock clock(options.seconds, kMinJobReps);
  for (int rep = 0; clock.Next(rep); ++rep) {
    const bool traced = TracedRep(options, rep);
    tracer.set_enabled(traced);
    std::vector<std::vector<Interval>> found(n_units);
    std::vector<std::int64_t> unit_ns(n_units);
    Workers pool(workers, traced);
    const double cpu0 = CpuSeconds();
    std::int64_t wall = 0;
    {
      auto root = tracer.Open("job", rep);
      const std::int64_t start = NowNs();
      pool.Run([&](std::size_t w, Worker& me) {
        for (std::size_t d : my_days(w)) {
          for (std::size_t q = 0; q < n_queries; ++q) {
            const std::size_t u = d * n_queries + q;
            const std::int64_t t0 = NowNs();
            StatusOr<std::vector<Interval>> r =
                TracedSearch(*sessions[w], queries[w][q], corpora[d],
                             static_cast<std::int32_t>(q), me.tracer);
            unit_ns[u] = NowNs() - t0;
            if (me.report.Op(r.status(), "Search")) found[u] = *std::move(r);
          }
        }
      });
      wall = NowNs() - start;
      pool.Join(report, tracer);
    }
    search.Add(traced, Seconds(wall), cpu0);
    if (!traced) latency_ns.insert(latency_ns.end(), unit_ns.begin(), unit_ns.end());
    if (rep == 0) {
      first = std::move(found);
    } else {
      report.Check(found == first,
                   "search results repeat exactly across repetitions");
    }
  }

  tracer.set_enabled(options.trace);
  Accuracy accuracy;
  std::int64_t intervals = 0;
  {
    auto root = tracer.Open("score");
    for (std::size_t u = 0; u < n_units; ++u) {
      intervals += static_cast<std::int64_t>(first[u].size());
      accuracy.Evaluate(static_cast<int>(u % n_queries), first[u],
                        days[u / n_queries].truth, tracer);
    }
  }
  accuracy.Publish(report);

  const std::int64_t searched_events =
      archive_events * static_cast<std::int64_t>(n_queries);
  PublishTimings(Median(setup_s), setup_s, Median(search.untraced_s),
                 search.untraced_s, std::move(latency_ns),
                 static_cast<double>(searched_events), report);

  if (options.trace) {
    const SpanStats spans(tracer);
    PublishCommonLayers(spans, search, workers, report);
    report.Set("searcher.slowest_query_s", spans.SlowestQuerySeconds("job"));
    report.Set("searcher.intervals", spans.LayerWork("job", "Search"));
    report.Set("searcher.eval_s", spans.LayerSeconds("job", "Search"));
  }

  report.Record("workers", std::int64_t{workers});
  report.Record("days", static_cast<std::int64_t>(n_days));
  report.Record("day_content_seeds", JsonArray(day_seeds));
  report.Record("day_instances", std::int64_t{sizes.hunt_day_instances});
  report.Record("archive_events", archive_events);
  report.Record("queries", static_cast<std::int64_t>(n_queries));
  report.Record("patterns", PatternCount(queries.front()));
  report.Record("search_match_cap", kUncapped);
  report.Record("search_intervals", intervals);
  report.Set("peak_rss_mb", PeakRssMb());
}

// ---------------------------------------------------------------------------
// watch: a monitoring service with one host per worker. Every host is a
// session with the committed queries as live watches on the default engine
// (1 shard, batch 1, round-robin), fed the same day one event per call by
// its own worker (a Session has one caller), which times every call. A
// closed loop: at batch 1 Feed returns only after the engine has processed
// the event, so the loop's rate is the engines' sustainable rate.

/// One monitored host: its session, watches and the alerts they delivered.
struct Host {
  std::unique_ptr<api::Session> session;
  std::vector<api::BehaviorQuery> queries;
  std::vector<int> watch_behavior;  // by watch id
  std::vector<std::vector<Interval>> alerts =
      std::vector<std::vector<Interval>>(kNumBehaviors);
  std::int64_t delivered = 0;
  /// Files an alert under its watch's behaviour; set once the host sits at
  /// its final address.
  api::WatchSink sink;

  void MakeSink() {
    sink = [this](const api::WatchAlert& a) {
      alerts[static_cast<std::size_t>(watch_behavior[a.watch])].push_back(
          a.interval);
      ++delivered;
    };
  }

  /// Feeds one event; `alerted` tells whether it delivered an alert.
  Status Feed(const api::EventRecord& event, bool& alerted, Tracer& tracer) {
    const std::int64_t before = delivered;
    auto span = tracer.Open("Feed");
    const Status status = session->Feed(event, sink);
    span.set_work(delivered - before);
    alerted = delivered != before;
    return status;
  }
};

void RunWatch(const Options& options, const Sizes& sizes, Report& report,
              Tracer& tracer) {
  const int workers = options.miner_threads;
  const std::size_t n_hosts = static_cast<std::size_t>(workers);
  const std::vector<std::string> artifacts =
      ReadArtifacts(options.queries_dir, report);
  const std::int64_t gen_start = NowNs();
  const Day day = GenerateDay(sizes.watch_day_instances, kWatchDaySeed,
                              Isomorph::FromSeed(options.seed));
  report.Set("syslog.gen_s", Seconds(NowNs() - gen_start));
  report.Set("syslog.gen_rss_mb", PeakRssMb());
  const std::size_t n_events = day.events.size();
  const std::size_t warmup = std::min(sizes.warmup_events, n_events / 4);
  const std::size_t timed_events = n_events - warmup;

  std::vector<Host> hosts;
  std::vector<std::vector<Interval>> first_alerts;
  std::vector<double> setup_s;  // hosts, loads, watches, warm-up prefixes
  JobPasses stream;
  std::vector<std::int64_t> alert_ns;  // alerting Feed calls, untraced passes
  std::int64_t alerting_events = -1;   // per pass; must repeat
  EngineStats engine;                  // host 0's, after the first pass
  Accuracy accuracy;
  RepClock clock(options.seconds, kMinJobReps);
  // Every repetition sets up and then runs the timed phase; set-up-only
  // passes follow until set-up has kSetupReps samples too.
  for (int rep = 0;; ++rep) {
    const bool timed = clock.Next(rep);
    if (!timed && setup_s.size() >= static_cast<std::size_t>(kSetupReps)) {
      break;
    }
    const bool traced = timed && TracedRep(options, rep);

    // Set-up: every worker builds its fresh host, with the artifacts, the
    // watches and the warm-up prefix of its stream. Only the first
    // kSetupReps set-ups are traced.
    hosts.clear();
    hosts.resize(n_hosts);
    const bool traced_setup = options.trace && rep < kSetupReps;
    tracer.set_enabled(traced_setup);
    {
      auto root = tracer.Open("setup", rep);
      Workers pool(workers, traced_setup);
      const std::int64_t start = NowNs();
      pool.Run([&](std::size_t w, Worker& me) {
        Host& host = hosts[w];
        host.MakeSink();
        host.session = std::make_unique<api::Session>(UncappedOptions());
        host.queries = LoadQueries(*host.session, artifacts, me.report,
                                   me.tracer);
        for (std::size_t q = 0; q < host.queries.size(); ++q) {
          StatusOr<api::WatchId> id = [&] {
            auto span = me.tracer.Open("Watch", static_cast<std::int32_t>(q));
            return host.session->Watch(host.queries[q]);
          }();
          if (me.report.Op(id.status(), "Watch")) {
            me.report.Check(*id == host.watch_behavior.size(),
                            "watch ids are dense");
            host.watch_behavior.push_back(static_cast<int>(q));
          }
        }
        bool alerted = false;
        for (std::size_t i = 0; i < warmup; ++i) {
          me.report.Op(host.Feed(day.events[i], alerted, me.tracer), "Feed");
        }
      });
      setup_s.push_back(Seconds(NowNs() - start));
      pool.Join(report, tracer);
    }
    if (!timed) continue;

    // The timed phase: the rest of the day on every host.
    tracer.set_enabled(traced);
    std::vector<std::vector<std::int64_t>> worker_alert_ns(
        static_cast<std::size_t>(workers));
    std::vector<std::int64_t> worker_alerting(static_cast<std::size_t>(workers));
    Workers pool(workers, traced);
    if (traced) pool.Reserve(timed_events);
    const double cpu0 = CpuSeconds();
    std::int64_t wall = 0;
    {
      auto root = tracer.Open("job", rep);
      const std::int64_t start = NowNs();
      pool.Run([&](std::size_t w, Worker& me) {
        for (std::size_t i = warmup; i < n_events; ++i) {
          bool alerted = false;
          const std::int64_t t0 = NowNs();
          const Status status = hosts[w].Feed(day.events[i], alerted, me.tracer);
          const std::int64_t ns = NowNs() - t0;
          me.report.Op(status, "Feed");
          if (alerted) {
            worker_alert_ns[w].push_back(ns);
            ++worker_alerting[w];
          }
        }
      });
      wall = NowNs() - start;
      pool.Join(report, tracer);
    }
    stream.Add(traced, Seconds(wall), cpu0);
    std::int64_t alerting = 0;
    for (std::size_t w = 0; w < worker_alert_ns.size(); ++w) {
      alerting += worker_alerting[w];
      if (!traced) {
        alert_ns.insert(alert_ns.end(), worker_alert_ns[w].begin(),
                        worker_alert_ns[w].end());
      }
    }
    if (alerting_events >= 0) {
      report.Check(alerting == alerting_events,
                   "the same events alert in every repetition");
    }
    alerting_events = alerting;

    tracer.set_enabled(options.trace);
    for (Host& host : hosts) {
      report.Op(host.session->FlushWatches(host.sink), "FlushWatches");
      const EngineStats stats = host.session->WatchStats();
      report.Check(stats.dropped_partials == 0, "watch dropped no partials");
      report.Check(stats.out_of_order_events == 0,
                   "watch saw no out-of-order events");
      for (std::vector<Interval>& a : host.alerts) {
        std::sort(a.begin(), a.end());
        a.erase(std::unique(a.begin(), a.end()), a.end());
      }
    }
    for (const Host& host : hosts) {
      report.Check(host.alerts == hosts.front().alerts,
                   "every host's watches alert alike on the same stream");
    }
    if (rep > 0) {
      report.Check(hosts.front().alerts == first_alerts,
                   "watch alerts repeat exactly across repetitions");
      continue;
    }
    engine = hosts.front().session->WatchStats();
    // Each watch's distinct alert intervals must equal an uncapped Search
    // over the same events.
    Host& host = hosts.front();
    auto root = tracer.Open("check");
    TracedIngest(*host.session, "day", day.events, 0, report, tracer);
    for (std::size_t q = 0; q < host.queries.size(); ++q) {
      StatusOr<std::vector<Interval>> found =
          TracedSearch(*host.session, host.queries[q], "day",
                       static_cast<std::int32_t>(q), tracer);
      if (!report.Op(found.status(), "Search")) continue;
      report.Check(*found == host.alerts[q],
                   "watch alerts equal Search over the same events");
      accuracy.Evaluate(static_cast<int>(q), host.alerts[q], day.truth,
                        tracer);
    }
    first_alerts = host.alerts;
  }
  accuracy.Publish(report);

  const std::int64_t patterns = PatternCount(hosts.front().queries);
  PublishTimings(Median(setup_s), setup_s, Median(stream.untraced_s),
                 stream.untraced_s, alert_ns,
                 static_cast<double>(n_hosts * timed_events), report);

  std::int64_t alert_intervals = 0;
  for (const auto& a : first_alerts) {
    alert_intervals += static_cast<std::int64_t>(a.size());
  }
  std::size_t peak_partials = 0;
  std::vector<std::int64_t> pattern_peaks;
  for (const EngineQueryStats& q : engine.queries) {
    peak_partials += q.peak_partials;
    pattern_peaks.push_back(static_cast<std::int64_t>(q.peak_partials));
  }
  if (options.trace) {
    const SpanStats spans(tracer);
    PublishCommonLayers(spans, stream, workers, report);
    report.Set("searcher.slowest_query_s", spans.SlowestQuerySeconds("check"));
    report.Set("searcher.intervals", spans.LayerWork("check", "Search"));
    report.Set("searcher.eval_s", spans.LayerSeconds("check", "Search"));
    report.Set("stream.feed_p50_us", spans.FeedPercentileUs(0.50, false));
    report.Set("stream.feed_p99_us", spans.FeedPercentileUs(0.99, false));
    report.Set("stream.feed_p999_us", spans.FeedPercentileUs(0.999, false));
    report.Set("stream.alert_p999_us", spans.FeedPercentileUs(0.999, true));
    report.Set("stream.alerting_events", static_cast<double>(alerting_events));
    report.Set("stream.alerts", static_cast<double>(engine.alerts));
    report.Set("stream.peak_partials", static_cast<double>(peak_partials));
    report.Set("stream.seed_skip_ratio",
               static_cast<double>(engine.seed_skips) /
                   (static_cast<double>(n_events) *
                    static_cast<double>(patterns)));
  }

  report.Record("workers", std::int64_t{workers});
  report.Record("hosts", static_cast<std::int64_t>(n_hosts));
  report.Record("day_content_seed",
                static_cast<std::int64_t>(day.content_seed));
  report.Record("day_instances", std::int64_t{sizes.watch_day_instances});
  report.Record("day_events", static_cast<std::int64_t>(n_events));
  report.Record("warmup_events", static_cast<std::int64_t>(warmup));
  report.Record("timed_events_per_host", static_cast<std::int64_t>(timed_events));
  report.Record("queries", static_cast<std::int64_t>(first_alerts.size()));
  report.Record("patterns", patterns);
  report.Record("watch_shards", std::int64_t{UncappedOptions().watch_shards});
  report.Record("watch_batch_size",
                static_cast<std::int64_t>(UncappedOptions().watch_batch_size));
  report.RecordString("watch_sharding", "query-round-robin");
  report.Record("alerts_per_host", engine.alerts);
  report.Record("alerting_events_per_pass", alerting_events);
  report.Record("alert_intervals", alert_intervals);
  report.Record("pattern_peak_partials", JsonArray(pattern_peaks));
  report.Set("peak_rss_mb", PeakRssMb());
}

}  // namespace

void RunWorkload(const Options& options, Report& report, Tracer& tracer) {
  const Sizes sizes = options.smoke ? SmokeSizes() : FullSizes();
  report.Record("training_seed", static_cast<std::int64_t>(kTrainingSeed));
  report.Record("query_runs_per_behavior",
                std::int64_t{sizes.query_runs_per_behavior});
  report.Record("query_background_graphs",
                std::int64_t{sizes.query_background_graphs});
  if (options.workload == "discover") {
    RunDiscover(options, sizes, report, tracer);
  } else if (options.workload == "hunt") {
    RunHunt(options, sizes, report, tracer);
  } else if (options.workload == "watch") {
    RunWatch(options, sizes, report, tracer);
  } else {
    report.Fail("unknown workload " + options.workload);
  }
}

Status RegenerateQueries(const Options& options, const std::string& dir) {
  Report report;
  Tracer tracer;
  const Sizes sizes = options.smoke ? SmokeSizes() : FullSizes();
  const Training training =
      GenerateTraining(sizes.query_runs_per_behavior,
                       sizes.query_background_graphs, Isomorph{});
  Laps laps;
  const DiscoverSession s =
      SetUpDiscover(training, laps, report, tracer);
  if (report.failed() > 0) return Status::Internal("ingest failed");
  const std::vector<api::MineSpec> specs =
      DiscoverSpecs(options, s.interest.get());
  for (int b = 0; b < kNumBehaviors; ++b) {
    TGM_ASSIGN_OR_RETURN(api::BehaviorQuery query,
                         s.session->Mine(specs[static_cast<std::size_t>(b)]));
    if (query.provenance().truncated) {
      return Status::Internal("mining " + BehaviorLabel(b) + " was truncated");
    }
    const std::string path = ArtifactPath(dir, b);
    std::ofstream out(path);
    TGM_RETURN_IF_ERROR(s.session->SaveQuery(query, out));
    out.close();
    if (!out) return Status::Internal("cannot write " + path);
    std::fprintf(stderr, "wrote %s (%zu patterns)\n", path.c_str(),
                 query.size());
  }
  return Status::Ok();
}

void CheckQueries(const Options& options, Report& report) {
  Tracer tracer;
  const std::vector<std::string> texts =
      ReadArtifacts(options.queries_dir, report);
  api::Session session;
  const std::vector<api::BehaviorQuery> queries =
      LoadQueries(session, texts, report, tracer);
  for (const api::BehaviorQuery& query : queries) {
    report.Op(query.Validate(), "Validate");
    report.Check(!query.empty() && query.window() > 0,
                 "artifact has patterns and a window");
  }
  report.Record("queries", static_cast<std::int64_t>(queries.size()));
  report.Record("patterns", PatternCount(queries));
}

}  // namespace tgm::e2e
