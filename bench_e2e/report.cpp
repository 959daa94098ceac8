#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "e2e.hpp"
#include "engine/cost_model.hpp"
#include "engine/image.hpp"
#include "spec/runtime_key.hpp"

namespace e2e {
namespace {

/// Median per-call nanoseconds of `body(i)` over `n` calls, in 16 batches.
template <typename Body>
double median_call_ns(std::size_t n, Body&& body) {
  constexpr std::size_t kBatches = 16;
  std::vector<double> per_call;
  const std::size_t per_batch = n / kBatches;
  std::size_t i = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const auto start = Clock::now();
    for (std::size_t k = 0; k < per_batch; ++k) body(i++);
    per_call.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count() /
        static_cast<double>(per_batch));
  }
  return median(std::move(per_call));
}

}  // namespace

const Metric* Result::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : buf_(capacity), state_(mix_seed(seed, 0x5eed) | 1) {}

void Reservoir::add(double v) {
  ++seen_;
  if (filled_ < buf_.size()) {
    buf_[filled_++] = v;
    return;
  }
  // xorshift64: one draw per sample past capacity keeps the reservoir
  // uniform over everything seen.
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  const std::uint64_t slot = state_ % seen_;
  if (slot < buf_.size()) buf_[slot] = v;
}

void Reservoir::merge(const Reservoir& other) {
  const std::size_t n = std::min(other.filled_, buf_.size() - filled_);
  std::copy_n(other.buf_.begin(), n,
              buf_.begin() + static_cast<std::ptrdiff_t>(filled_));
  filled_ += n;
  seen_ += other.seen_;
}

double Reservoir::percentile(double p) {
  if (filled_ == 0) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(filled_));
  const auto idx = static_cast<std::ptrdiff_t>(
      std::clamp(rank, 1.0, static_cast<double>(filled_)) - 1.0);
  const auto end = buf_.begin() + static_cast<std::ptrdiff_t>(filled_);
  std::nth_element(buf_.begin(), buf_.begin() + idx, end);
  return buf_[static_cast<std::size_t>(idx)];
}

double percentile_of(std::vector<double> values, double p) {
  Reservoir r(values.size());
  for (const double v : values) r.add(v);
  return r.percentile(p);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void pin_self(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  // Best effort: a refused mask leaves placement to the scheduler.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string checksum_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0;) {
    out[i] = kHex[h & 0xf];
    h >>= 4;
  }
  return out;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): independent generator seeds per
  // client / repetition / attempt from one workload seed.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void add_spec_engine_metrics(
    Result& r, const std::vector<const hotc::spec::RunSpec*>& specs) {
  std::uint64_t sink = 0;  // printed, so the timed calls cannot be elided
  const double key_ns = median_call_ns(specs.size(), [&](std::size_t i) {
    sink ^= hotc::spec::RuntimeKey::from_spec(*specs[i]).hash();
  });
  const hotc::engine::CostModel cost(hotc::engine::HostProfile::server());
  const double cost_ns = median_call_ns(specs.size(), [&](std::size_t i) {
    const hotc::engine::Image image =
        hotc::engine::image_for_name(specs[i]->image);
    sink ^= static_cast<std::uint64_t>(
        cost.startup(*specs[i], image, /*bytes_to_pull=*/0).total().count());
  });
  r.add("spec.key_ns", key_ns, "ns", "median of 16 batches");
  r.add("engine.cost_ns", cost_ns, "ns",
        "median of 16 batches (sink " + std::to_string(sink & 0xff) + ")");
}

}  // namespace e2e
