// bench_e2e: the repository benchmark.  See bench_e2e/README.md.
//
//   bench_e2e --workload hit_path|miss_path|sim_day [--seed N]
//             [--seconds S] [--trace 0|1] [--short]
//             [--corrupt-every N] [--spans-out FILE]
//
// Prints a provenance header, one line per metric (name, value, unit),
// any failed output check, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1) named in BENCHMARK.json.  Exit status: 0 when every output
// check passed, 1 when one failed, 2 on a usage error or a build that
// must not be timed.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "core/ranked_mutex.hpp"
#include "e2e.hpp"

namespace e2e {
namespace {

constexpr std::uint64_t kDefaultSeed = 1;
/// Never used while the benchmark or a change is tuned, so that later
/// claims can be re-checked on a seed nothing was fitted to.
constexpr std::uint64_t kHeldOutSeed = 104729;

struct Named {
  const char* name;
  const char* unit;
};

// The metric sets of BENCHMARK.json, in its order.  Every workload reports
// each of these; a per-layer count or ratio of a layer the workload does
// not run (sharing on hit_path, the controller on RealHotC) reads 0.
constexpr Named kEndToEnd[] = {
    {"throughput_rps", "req/s"},
    {"latency_p50_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};
constexpr Named kPerLayer[] = {
    {"spec.key_ns", "ns"},
    {"engine.cost_ns", "ns"},
    {"workload.gen_s", "s"},
    {"obs.trace_overhead_pct", "%"},
    {"pool.hit_ratio", "ratio"},
    {"pool.evictions", "count"},
    {"share.donor_hit_ratio", "ratio"},
    {"snapshot.restore_ratio", "ratio"},
    {"snapshot.demotes", "count"},
    {"snapshot.rejected", "count"},
    {"stage.pool_lookup_share", "ratio"},
    {"stage.donor_lookup_share", "ratio"},
    {"stage.respecialize_share", "ratio"},
    {"stage.restore_share", "ratio"},
    {"stage.cold_start_share", "ratio"},
    {"stage.exec_share", "ratio"},
    {"stage.readmit_share", "ratio"},
    {"stage.checkpoint_share", "ratio"},
    {"stage.idle_share", "ratio"},
    {"predict.calls", "count"},
    {"hotc.reuses", "count"},
    {"hotc.prewarms", "count"},
    {"hotc.retired", "count"},
    {"hotc.evicted", "count"},
    {"hotc.restores", "count"},
    {"hotc.donor_hits", "count"},
};

bool is_time_unit(const std::string& unit) {
  return unit == "s" || unit == "ms" || unit == "us" || unit == "ns";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Commit SHA of the checkout in the working directory: HEAD, then the
/// loose ref it names, then .git/packed-refs (a fresh clone keeps its
/// refs packed only).
std::string git_sha() {
  std::ifstream head(".git/HEAD");
  std::string line;
  if (!head || !std::getline(head, line)) return "unknown (no .git)";
  if (line.rfind("ref: ", 0) != 0) return line;  // detached HEAD
  const std::string ref = line.substr(5);
  std::ifstream loose(".git/" + ref);
  std::string sha;
  if (loose && std::getline(loose, sha) && !sha.empty()) return sha;
  std::ifstream packed(".git/packed-refs");
  while (std::getline(packed, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '^') continue;
    const auto space = line.find(' ');
    if (space != std::string::npos && line.substr(space + 1) == ref) {
      return line.substr(0, space);
    }
  }
  return "unknown (unresolved " + ref + ")";
}

/// Why this build must not be timed, or empty.  Lock-rank auditing and
/// ledger checks (debug builds and HOTC_AUDIT) sit inside the timed path.
std::string untimeable_build() {
#ifndef NDEBUG
  return "built without NDEBUG";
#endif
#ifdef HOTC_AUDIT
  return "built with HOTC_AUDIT";
#endif
  if (hotc::kLockAuditEnabled) return "built with lock-rank auditing";
  return "";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "hit_path|miss_path|sim_day [--seed N] [--seconds S] "
               "[--trace 0|1] [--short] [--corrupt-every N] "
               "[--spans-out FILE]\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  args.seed = kDefaultSeed;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      args.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") error = "--trace takes 0 or 1";
    } else if (flag == "--corrupt-every") {
      args.corrupt_every = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      error = "unknown flag " + flag;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      error = "bad value for " + flag + ": " + value;
    }
    if (!error.empty()) return false;
  }
  if (args.workload != "hit_path" && args.workload != "miss_path" &&
      args.workload != "sim_day") {
    error = "unknown workload '" + args.workload + "'";
    return false;
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    error = "--seconds must be in (0, 600]";
    return false;
  }
  return true;
}

struct Summary {
  std::string json;     // the one-line result
  std::string missing;  // listed metrics the workload did not measure
  bool correct = false;
};

/// The one-line result.  `result` is null for a run that failed before
/// measuring anything.  A listed metric the workload did not measure makes
/// the run incorrect.
Summary summarize(const Result* result, bool trace) {
  Summary sum;
  std::ostringstream metrics;
  if (result != nullptr) {
    for (const Named& want : trace ? std::span<const Named>(kPerLayer)
                                   : std::span<const Named>(kEndToEnd)) {
      const Metric* m = result->find(want.name);
      double value = 0.0;
      if (m != nullptr && m->unit == want.unit) {
        value = m->value;
      } else if (m != nullptr || is_time_unit(want.unit) || !trace) {
        sum.missing += std::string(" ") + want.name;
        continue;
      }
      metrics << (metrics.tellp() > 0 ? ", " : "") << "\"" << want.name
              << "\": {\"value\": " << number(value) << ", \"unit\": \""
              << want.unit << "\"}";
    }
  }
  sum.correct = result != nullptr && result->violations.empty() &&
                result->failed == 0 && sum.missing.empty();
  std::ostringstream out;
  out << "{\"correct\": " << (sum.correct ? "true" : "false")
      << ", \"attempted\": "
      << std::max<std::uint64_t>(result ? result->attempted : 0, 1)
      << ", \"failed\": " << (result ? result->failed : 1)
      << ", \"metrics\": {" << metrics.str() << "}}";
  sum.json = out.str();
  return sum;
}

}  // namespace

void fail_fast(const std::string& why) {
  std::fprintf(stderr, "bench_e2e: %s\n", why.c_str());
  std::printf("%s\n", summarize(nullptr, false).json.c_str());
  std::fflush(stdout);
  std::_Exit(1);  // worker threads may be stuck; skip their destructors
}

}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) return usage(error.c_str());
  if (const std::string why = untimeable_build(); !why.empty()) {
    std::fprintf(stderr, "bench_e2e: refusing to time a build %s\n",
                 why.c_str());
    return 2;
  }

  // Read before a workload pins the calling thread.
  const std::size_t cores = allowed_cpus().size();
  Result result = args.workload == "hit_path"    ? run_hit_path(args)
                  : args.workload == "miss_path" ? run_miss_path(args)
                                                 : run_sim_day(args);

  if (!args.trace) {
    result.add("error_ratio", ratio(result.failed, result.attempted), "ratio",
               "n=" + std::to_string(result.attempted));
    result.add("peak_rss_mib", peak_rss_mib(), "MiB");
  }

  const bool comparable = cores >= result.load_threads;
  std::printf("# bench_e2e workload=%s seed=%" PRIu64
              " held_out_seed=%" PRIu64 " seconds=%g trace=%d%s\n",
              args.workload.c_str(), args.seed, kHeldOutSeed, args.seconds,
              args.trace ? 1 : 0, args.short_mode ? " short" : "");
  std::printf("# git_sha=%s nproc=%zu load_threads=%u comparable=%s\n",
              git_sha().c_str(), cores, result.load_threads,
              comparable ? "yes" : "no (fewer cores than load threads)");
  std::printf("# compiler=%s build_type=%s flags=\"%s\"\n",
              HOTC_E2E_COMPILER, HOTC_E2E_BUILD_TYPE, HOTC_E2E_CXX_FLAGS);
  for (const Metric& m : result.metrics) {
    std::printf("%-36s %16.6f %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& v : result.violations) {
    std::printf("CHECK FAILED: %s\n", v.c_str());
  }

  const Summary sum = summarize(&result, args.trace);
  if (!sum.missing.empty()) {
    std::printf("CHECK FAILED: metrics not measured:%s\n",
                sum.missing.c_str());
  }
  std::printf("%s\n", sum.json.c_str());
  return sum.correct ? 0 : 1;
}
