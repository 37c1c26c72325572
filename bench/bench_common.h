#ifndef TGM_BENCH_BENCH_COMMON_H_
#define TGM_BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "query/pipeline.h"

namespace tgm::bench {

/// Minimal --key=value flag reader shared by the bench binaries. Every
/// binary runs with paper-shaped defaults when invoked without arguments.
/// Malformed arguments are a usage error and terminate the binary, rather
/// than silently becoming 0 (or being ignored) and running the bench with
/// nonsense parameters: numeric values must parse completely
/// (`--runs=abc`, `--scale=1.5x`, empty values are rejected), every
/// argument must have `--key=value` shape, and the key must be one of the
/// known bench flags (so a typo like `--thread=4` fails instead of
/// silently using the default). The vocabulary is shared across all bench
/// binaries, so a valid flag a particular binary never reads is accepted
/// and ignored — key validation catches typos, not inapplicable flags.
class Flags {
 public:
  /// `extra_keys` are flags only this particular binary implements (e.g.
  /// fig13's --miners/--classes/--json_out); keeping them out of the shared
  /// vocabulary preserves the strict-rejection guarantee for binaries that
  /// would silently ignore them.
  Flags(int argc, char** argv,
        std::initializer_list<const char*> extra_keys = {})
      : argc_(argc), argv_(argv) {
    // The closed vocabulary of flags across all bench binaries; google-
    // benchmark's own --benchmark_* flags pass through untouched.
    static constexpr const char* kKnown[] = {
        "background", "budget_ms", "instances",      "max_edges", "runs",
        "query_size", "scale",     "mine_budget_ms", "seed",      "threads",
        "root_batch"};
    for (int i = 1; i < argc_; ++i) {
      const char* arg = argv_[i];
      if (std::strncmp(arg, "--benchmark_", 12) == 0) continue;
      const char* eq = std::strchr(arg, '=');
      bool known = false;
      if (std::strncmp(arg, "--", 2) == 0 && eq != nullptr) {
        std::string key(arg + 2, eq);
        for (const char* k : kKnown) known |= key == k;
        for (const char* k : extra_keys) known |= key == k;
      }
      if (!known) {
        std::fprintf(stderr,
                     "error: unknown argument '%s'\n"
                     "usage: %s [--key=value ...], where key is one of:\n ",
                     arg, argc_ > 0 ? argv_[0] : "bench");
        for (const char* k : kKnown) std::fprintf(stderr, " --%s", k);
        for (const char* k : extra_keys) std::fprintf(stderr, " --%s", k);
        std::fprintf(stderr, "\n");
        std::exit(2);
      }
    }
  }

  double GetDouble(const char* name, double fallback) const {
    std::string value;
    if (!Find(name, &value)) return fallback;
    char* end = nullptr;
    errno = 0;
    double parsed = std::strtod(value.c_str(), &end);
    // ERANGE on underflow still yields a usable (sub)normal value; only
    // overflow to +/-HUGE_VAL is a real error.
    bool overflow = errno == ERANGE &&
                    (parsed == HUGE_VAL || parsed == -HUGE_VAL);
    if (value.empty() || end != value.c_str() + value.size() || overflow) {
      Usage(name, value, "a floating-point number");
    }
    return parsed;
  }

  /// Raw string flag value (e.g. --miners=TGMiner,PruneGI); empty-string
  /// values are allowed and returned as such.
  std::string GetString(const char* name, const std::string& fallback) const {
    std::string value;
    if (!Find(name, &value)) return fallback;
    return value;
  }

  std::int64_t GetInt(const char* name, std::int64_t fallback,
                      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
                      std::int64_t max = std::numeric_limits<std::int64_t>::max())
      const {
    std::string value;
    if (!Find(name, &value)) return fallback;
    char* end = nullptr;
    errno = 0;
    long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (value.empty() || end != value.c_str() + value.size() || errno != 0) {
      Usage(name, value, "an integer");
    }
    if (parsed < min || parsed > max) {
      std::fprintf(stderr,
                   "error: flag --%s=%s is out of range [%lld, %lld]\n",
                   name, value.c_str(), static_cast<long long>(min),
                   static_cast<long long>(max));
      std::exit(2);
    }
    return static_cast<std::int64_t>(parsed);
  }

 private:
  [[noreturn]] void Usage(const char* name, const std::string& value,
                          const char* expected) const {
    std::fprintf(stderr,
                 "error: flag --%s=%s is not %s\n"
                 "usage: %s [--key=value ...] (numeric values only)\n",
                 name, value.c_str(), expected,
                 argc_ > 0 ? argv_[0] : "bench");
    std::exit(2);
  }

  bool Find(const char* name, std::string* value) const {
    std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc_; ++i) {
      if (std::strncmp(argv_[i], prefix.c_str(), prefix.size()) == 0) {
        *value = argv_[i] + prefix.size();
        return true;
      }
    }
    return false;
  }

  int argc_;
  char** argv_;
};

/// The default pipeline scale used by the accuracy benches: small enough
/// that the whole suite finishes in minutes, large enough that the Table 2
/// / Figure 11-12 shapes are stable. Raise with --runs/--background/
/// --instances/--scale to approach paper scale (100/10000/10000/1.0).
inline PipelineConfig DefaultPipelineConfig(const Flags& flags) {
  PipelineConfig config;
  config.dataset.runs_per_behavior =
      static_cast<int>(flags.GetInt("runs", 20));
  config.dataset.background_graphs =
      static_cast<int>(flags.GetInt("background", 100));
  config.dataset.test_instances =
      static_cast<int>(flags.GetInt("instances", 120));
  config.dataset.seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  config.dataset.gen.size_scale = flags.GetDouble("scale", 1.0);
  config.query_size = static_cast<int>(flags.GetInt("query_size", 6));
  config.miner.max_millis = flags.GetInt("mine_budget_ms", 120000);
  // Threads for the miner's parallel work; results are bit-identical
  // across values unless the mine_budget_ms wall-clock cutoff triggers
  // (see MinerConfig::num_threads). 0 = all hardware threads. With
  // --root_batch=N (default 1: exact serial search) whole root subtrees
  // run concurrently in batches of N; results then depend on N (but still
  // not on --threads), so keep it fixed when comparing runs.
  config.miner.num_threads =
      static_cast<int>(flags.GetInt("threads", 1, 0, 4096));
  config.miner.root_batch =
      static_cast<int>(flags.GetInt("root_batch", 1, 1, 4096));
  return config;
}

/// Minimal JSON result writer for the custom (non-google-benchmark) bench
/// binaries, schema-compatible enough with --benchmark_out for the
/// BENCH_*.json trajectory: {"benchmarks": [{"name", "real_time",
/// "time_unit", <counters...>}]}. The gbench binaries emit JSON natively.
class JsonBenchWriter {
 public:
  void Add(const std::string& name, double real_time_seconds,
           std::vector<std::pair<std::string, double>> counters = {}) {
    rows_.push_back(Row{name, real_time_seconds, std::move(counters)});
  }

  /// Writes the collected rows; returns false (with a stderr note) on I/O
  /// failure so benches can keep their exit status meaningful.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open --json_out=%s for writing\n",
                   path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"real_time\": %.6f, "
                   "\"time_unit\": \"s\"",
                   row.name.c_str(), row.real_time_seconds);
      for (const auto& [key, value] : row.counters) {
        std::fprintf(f, ", \"%s\": %.6f", key.c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    bool ok = std::fclose(f) == 0;
    if (!ok) std::fprintf(stderr, "error: writing %s failed\n", path.c_str());
    return ok;
  }

 private:
  struct Row {
    std::string name;
    double real_time_seconds = 0.0;
    std::vector<std::pair<std::string, double>> counters;
  };
  std::vector<Row> rows_;
};

/// True if `name` is in the comma-separated `filter` (empty = everything).
inline bool NameSelected(const std::string& filter, const std::string& name) {
  if (filter.empty()) return true;
  std::size_t start = 0;
  while (start <= filter.size()) {
    std::size_t comma = filter.find(',', start);
    std::size_t end = comma == std::string::npos ? filter.size() : comma;
    if (filter.compare(start, end - start, name) == 0) return true;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return false;
}

/// Usage-errors (exit 2) unless every comma-separated token of `filter` is
/// one of `known` — a typo'd --miners/--classes selection must not silently
/// run zero work and "succeed".
inline void RequireKnownNames(const std::string& filter, const char* flag,
                              const std::vector<std::string>& known) {
  std::size_t start = 0;
  while (start < filter.size()) {
    std::size_t comma = filter.find(',', start);
    std::size_t end = comma == std::string::npos ? filter.size() : comma;
    std::string token = filter.substr(start, end - start);
    bool ok = false;
    for (const std::string& k : known) ok |= token == k;
    if (!ok) {
      std::fprintf(stderr, "error: --%s=%s names unknown entry '%s'; known:",
                   flag, filter.c_str(), token.c_str());
      for (const std::string& k : known) std::fprintf(stderr, " %s", k.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
}

/// Header banner shared by all bench binaries.
inline void Banner(const char* artifact, const char* description) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf("(scaled-down defaults; see README.md \"Benches\" and "
              "bench/baselines/README.md for paper-scale flags and shape "
              "notes)\n");
  std::printf("==============================================================="
              "=================\n");
}

}  // namespace tgm::bench

#endif  // TGM_BENCH_BENCH_COMMON_H_
