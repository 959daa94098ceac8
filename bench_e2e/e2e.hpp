// Shared types for the end-to-end benchmark (see bench_e2e/README.md).
//
// Each workload runs from generated inputs only, returns a Result holding
// every metric it measured plus the output checks it failed, and main.cpp
// prints the report and the one-line JSON summary.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hotc::spec {
struct RunSpec;
}

namespace e2e {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizing: small inputs, short fill phases.
  bool short_mode = false;
  /// Fault flag: the handler corrupts every Nth payload (0 = off), so the
  /// self-test can prove the payload check catches it.
  std::uint64_t corrupt_every = 0;
  /// Traced runs write their span records here as JSON lines (empty =
  /// keep them in memory only).
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Free-form context printed in the report (sample counts, ...).
  std::string note;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check violations; any entry makes the run incorrect.
  std::vector<std::string> violations;
  std::vector<Metric> metrics;
  /// Threads generating load (clients + workers), for the comparability
  /// flag: a run on fewer cores than this is not comparable.
  unsigned load_threads = 1;

  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
  /// Record a failed output check.  `count` requests are charged to
  /// `failed` (0 for checks on aggregate counters, which fail the run
  /// without naming a request).
  void violate(std::string what, std::uint64_t count = 0) {
    failed += count;
    if (violations.size() < 16) violations.push_back(std::move(what));
  }
  [[nodiscard]] const Metric* find(const std::string& name) const;
};

Result run_hit_path(const Args& args);
Result run_miss_path(const Args& args);
Result run_sim_day(const Args& args);

/// A request that never resolves leaves worker threads that cannot be
/// joined: print an incorrect result and end the process (main.cpp).
[[noreturn]] void fail_fast(const std::string& why);

// ---- measurement helpers (report.cpp) ------------------------------------

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

/// Fixed-capacity uniform sample of a stream (Vitter's algorithm R).  The
/// buffer is allocated and touched up front, so the resident set of a run
/// does not depend on its throughput (peak_rss_mib stays a measure of the
/// library), and percentiles of a million-sample reservoir are exact to
/// well under a percent.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = 0, std::uint64_t seed = 1);
  void add(double v);
  /// Append another reservoir's samples (pooling per-client reservoirs of
  /// comparable size); this reservoir must have room for them.
  void merge(const Reservoir& other);
  [[nodiscard]] std::uint64_t seen() const { return seen_; }
  /// Nearest-rank percentile of the sample (0 when empty); reorders it.
  [[nodiscard]] double percentile(double p);

 private:
  std::vector<double> buf_;
  std::size_t filled_ = 0;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
};

double median(std::vector<double> values);
double percentile_of(std::vector<double> values, double p);

inline double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Note for a metric reported as the median over a run's set-ups.
inline std::string setups_note(int setups) {
  return "median of " + std::to_string(setups) + " set-ups";
}

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();

/// Restrict the calling thread to `cpus` (no-op when empty).  Threads it
/// starts afterwards inherit the mask.
void pin_self(const std::vector<int>& cpus);

/// 64-bit FNV-1a as 16 lowercase hex digits: the handler's payload.
std::string checksum_hex(const std::string& text);

/// Deterministic 64-bit mix of a seed and a stream index.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// spec.key_ns and engine.cost_ns: RuntimeKey::from_spec, and
/// image_for_name + CostModel::startup (calls RealHotC makes on every
/// request), timed directly over a workload's own spec stream.
void add_spec_engine_metrics(
    Result& r, const std::vector<const hotc::spec::RunSpec*>& specs);

}  // namespace e2e
