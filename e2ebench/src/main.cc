// End-to-end benchmark of TGMiner: drives the library only through its
// public api::Session, query/, mining/ and syslog/ headers and times those
// calls from outside. See e2ebench/README.md for the workloads and metrics.
//
//   tgm_e2ebench --workload discover|hunt|watch --seed N --seconds S
//                --trace 0|1 --queries DIR [--trace-out FILE] [--smoke]
//                [--threads N]
//   tgm_e2ebench --regen-queries DIR [--threads N]
//   tgm_e2ebench --check-queries DIR
//
// The last line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a {"run_record": {...}} line.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "report.h"
#include "trace.h"
#include "workloads.h"

#ifndef TGM_E2E_BUILD_TYPE
#define TGM_E2E_BUILD_TYPE "unknown"
#endif
#ifndef TGM_E2E_COMPILER
#define TGM_E2E_COMPILER "unknown"
#endif

namespace {

using tgm::e2e::Options;

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: tgm_e2ebench --workload discover|hunt|watch --seed N "
               "--seconds S --trace 0|1 --queries DIR [--trace-out FILE] "
               "[--smoke] [--threads N]\n"
               "       tgm_e2ebench --regen-queries DIR [--threads N]\n"
               "       tgm_e2ebench --check-queries DIR\n",
               why);
  return 2;
}

bool ParseInt(std::string_view text, long long& out) {
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && end == text.data() + text.size();
}

int HardwareThreads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string regen_dir, check_dir;
  long long threads = -1;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const std::string_view value = argv[++i];
    long long n = 0;
    if (flag == "--workload") {
      options.workload = std::string(value);
    } else if (flag == "--seed") {
      if (!ParseInt(value, n) || n < 0) return Usage("--seed takes an integer >= 0");
      options.seed = static_cast<std::uint64_t>(n);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseInt(value, n) || n < 1 || n > 3600) {
        return Usage("--seconds takes an integer in [1, 3600]");
      }
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--threads") {
      if (!ParseInt(value, threads) || threads < 1) {
        return Usage("--threads takes an integer >= 1");
      }
    } else if (flag == "--queries") {
      options.queries_dir = std::string(value);
    } else if (flag == "--trace-out") {
      options.trace_out = std::string(value);
    } else if (flag == "--regen-queries") {
      regen_dir = std::string(value);
    } else if (flag == "--check-queries") {
      check_dir = std::string(value);
    } else {
      return Usage(("unknown flag " + std::string(flag)).c_str());
    }
  }

  // Timings of an unoptimized or assertion-laden build mean nothing.
  if (std::strcmp(TGM_E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "error: refusing a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", TGM_E2E_BUILD_TYPE);
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "error: refusing a build without NDEBUG\n");
  return 2;
#endif
  const int nproc = HardwareThreads();
  if (threads > nproc) {
    std::fprintf(stderr, "error: %lld threads requested (discover's miner, "
                 "hunt's and watch's workers), but only %d hardware threads "
                 "exist\n", threads, nproc);
    return 2;
  }
  options.miner_threads =
      threads > 0 ? static_cast<int>(threads) : std::min(4, nproc);

  if (!regen_dir.empty()) {
    const tgm::Status status = tgm::e2e::RegenerateQueries(options, regen_dir);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }

  tgm::e2e::Report report;
  report.RecordString("build_type", TGM_E2E_BUILD_TYPE);
  report.RecordString("compiler", TGM_E2E_COMPILER);
  report.Record("nproc", std::int64_t{nproc});

  if (!check_dir.empty()) {
    options.queries_dir = check_dir;
    tgm::e2e::CheckQueries(options, report);
    const std::string result = report.ResultJson({}, true);
    std::printf("%s\n%s\n", report.RunRecordJson().c_str(), result.c_str());
    return report.failed() == 0 ? 0 : 1;
  }

  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.workload != "discover" && options.workload != "hunt" &&
      options.workload != "watch") {
    return Usage("--workload must be discover, hunt or watch");
  }
  if (options.workload != "discover" && options.queries_dir.empty()) {
    return Usage("hunt and watch need --queries DIR");
  }

  report.RecordString("workload", options.workload);
  report.Record("seed", static_cast<std::int64_t>(options.seed));
  report.Record("seconds", options.seconds);
  report.Record("trace", std::int64_t{options.trace ? 1 : 0});
  report.Record("smoke", std::int64_t{options.smoke ? 1 : 0});

  tgm::e2e::Tracer tracer;
  tgm::e2e::RunWorkload(options, report, tracer);
  tracer.set_enabled(false);

  if (options.trace && !options.trace_out.empty()) {
    report.Check(tracer.WriteChromeTrace(options.trace_out),
                 "trace file written");
    report.RecordString("trace_file", options.trace_out);
  }
  report.Record("spans", static_cast<std::int64_t>(tracer.spans().size()));

  const std::string result =
      options.trace ? report.ResultJson(tgm::e2e::PerLayerMetrics(), true)
                    : report.ResultJson(tgm::e2e::EndToEndMetrics(), false);
  std::printf("%s\n%s\n", report.RunRecordJson().c_str(), result.c_str());
  return report.failed() == 0 ? 0 : 1;
}
