#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <type_traits>

#include "core/assert.hpp"

namespace hotc::obs {

double HistogramSnapshot::quantile(double q) const {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = underflow;
  if (rank <= static_cast<double>(cumulative)) {
    return 0.0;  // the quantile falls among sub-domain samples
  }
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t in_bucket = counts[b];
    if (in_bucket == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (rank > static_cast<double>(cumulative)) continue;
    // Geometric interpolation between the bucket edges: samples are
    // treated as log-uniform within the bucket, matching the log-scale
    // bucketing itself.
    const double lo = LogHistogram::lower_bound(static_cast<int>(b));
    const double hi =
        static_cast<int>(b) + 1 < LogHistogram::kBuckets
            ? LogHistogram::lower_bound(static_cast<int>(b) + 1)
            : lo * LogHistogram::kWidth;
    const double frac = (rank - before) / static_cast<double>(in_bucket);
    return lo * std::pow(hi / lo, frac);
  }
  // Only overflow samples remain above the rank.
  return LogHistogram::lower_bound(LogHistogram::kBuckets - 1) *
         LogHistogram::kWidth;
}

int HistogramSnapshot::quantile_bucket(double q) const {
  if (total == 0) return -1;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = underflow;
  if (rank <= static_cast<double>(cumulative)) return -1;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    cumulative += counts[b];
    if (rank <= static_cast<double>(cumulative)) {
      return static_cast<int>(b);
    }
  }
  return -1;  // the quantile falls among overflow samples
}

HistogramSnapshot LogHistogram::snapshot() const {
  HistogramSnapshot out;
  out.counts.resize(kBuckets);
  out.underflow = counts_[0].load(std::memory_order_relaxed);
  out.total = out.underflow;
  for (int b = 0; b < kBuckets; ++b) {
    out.counts[static_cast<std::size_t>(b)] =
        counts_[b + 1].load(std::memory_order_relaxed);
    out.total += out.counts[static_cast<std::size_t>(b)];
  }
  out.overflow = counts_[kBuckets + 1].load(std::memory_order_relaxed);
  out.total += out.overflow;
  if (has_exemplars_.load(std::memory_order_relaxed)) {
    out.exemplars.resize(kBuckets);
    for (int b = 0; b < kBuckets; ++b) {
      out.exemplars[static_cast<std::size_t>(b)] =
          exemplars_[b + 1].load(std::memory_order_relaxed);
    }
  }
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

double LogHistogram::lower_bound(int b) {
  const int exp = kMinExp + b / kSub;
  const int sub = b % kSub;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSub, exp);
}

template <typename T>
T& Registry::find_or_create(std::deque<T>& store, MetricKind kind,
                            const std::string& name, const std::string& help,
                            const std::string& labels) {
  const auto key = std::make_pair(name, labels);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    HOTC_ASSERT_MSG(e.kind == kind,
                    "metric re-registered with a different kind");
    if constexpr (std::is_same_v<T, Counter>) return *e.counter;
    if constexpr (std::is_same_v<T, Gauge>) return *e.gauge;
    if constexpr (std::is_same_v<T, LogHistogram>) return *e.histogram;
  }
  store.emplace_back();
  Entry e;
  e.name = name;
  // First registration of a name wins the help text, so families stay
  // coherent across differently-labelled instances.
  e.help = help;
  for (const Entry& prior : entries_) {
    if (prior.name == name) {
      e.help = prior.help;
      break;
    }
  }
  e.kind = kind;
  e.labels = labels;
  if constexpr (std::is_same_v<T, Counter>) e.counter = &store.back();
  if constexpr (std::is_same_v<T, Gauge>) e.gauge = &store.back();
  if constexpr (std::is_same_v<T, LogHistogram>) e.histogram = &store.back();
  index_.emplace(key, entries_.size());
  entries_.push_back(std::move(e));
  return store.back();
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const std::string& labels) {
  const RankedGuard lock(mu_);
  return find_or_create(counters_, MetricKind::kCounter, name, help, labels);
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const std::string& labels) {
  const RankedGuard lock(mu_);
  return find_or_create(gauges_, MetricKind::kGauge, name, help, labels);
}

LogHistogram& Registry::histogram(const std::string& name,
                                  const std::string& help,
                                  const std::string& labels) {
  const RankedGuard lock(mu_);
  return find_or_create(histograms_, MetricKind::kHistogram, name, help,
                        labels);
}

void MetricSink::add(MetricKind kind, std::string name, std::string help,
                     double value, std::string labels) {
  MetricSample s;
  s.name = std::move(name);
  s.help = std::move(help);
  s.kind = kind;
  s.labels = std::move(labels);
  s.value = value;
  out_.push_back(std::move(s));
}

void Registry::Collection::reset() {
  if (registry_ == nullptr) return;
  {
    const RankedGuard lock(registry_->mu_);
    auto& fns = registry_->collectors_;
    fns.erase(std::find_if(fns.begin(), fns.end(),
                           [this](const auto& c) { return c.first == id_; }));
    ++registry_->collector_epoch_;
  }
  registry_ = nullptr;
}

Registry::~Registry() {
  const RankedGuard lock(mu_);
  HOTC_ASSERT_MSG(collectors_.empty(),
                  "registry destroyed before a collector's owner");
}

Registry::Collection Registry::collect(Collector fn) {
  HOTC_ASSERT(fn != nullptr);
  std::uint64_t id = 0;
  {
    const RankedGuard lock(mu_);
    id = ++collector_epoch_;
    collectors_.emplace_back(id, std::move(fn));
  }
  return Collection(this, id);
}

std::uint64_t Registry::collector_epoch() const {
  const RankedGuard lock(mu_);
  return collector_epoch_;
}

RegistrySnapshot Registry::snapshot() const {
  RegistrySnapshot out;
  std::vector<Collector> collectors;
  {
    const RankedGuard lock(mu_);
    out.reserve(entries_.size());
    // One pass over every instrument: all values are read here, before
    // any caller formats anything.
    for (const Entry& e : entries_) {
      MetricSample s;
      s.name = e.name;
      s.help = e.help;
      s.kind = e.kind;
      s.labels = e.labels;
      switch (e.kind) {
        case MetricKind::kCounter:
          s.value = static_cast<double>(e.counter->value());
          break;
        case MetricKind::kGauge:
          s.value = e.gauge->value();
          break;
        case MetricKind::kHistogram:
          s.histogram = e.histogram->snapshot();
          break;
      }
      out.push_back(std::move(s));
    }
    collectors.reserve(collectors_.size());
    for (const auto& c : collectors_) collectors.push_back(c.second);
  }
  // Outside mu_: a collector may take its owner's locks, all of which
  // rank below the registry's.
  MetricSink sink(out);
  for (const Collector& fn : collectors) fn(sink);
  // Stable: a merged sample keeps the help text of the first registered.
  std::stable_sort(out.begin(), out.end(),
                   [](const MetricSample& a, const MetricSample& b) {
                     return a.name != b.name ? a.name < b.name
                                             : a.labels < b.labels;
                   });
  std::size_t kept = 0;
  for (MetricSample& s : out) {
    if (kept > 0 && out[kept - 1].name == s.name &&
        out[kept - 1].labels == s.labels) {
      MetricSample& into = out[kept - 1];
      HOTC_ASSERT_MSG(into.kind == s.kind && s.kind != MetricKind::kHistogram,
                      "metric collected with a different kind");
      into.value += s.value;
      continue;
    }
    if (&out[kept] != &s) out[kept] = std::move(s);
    ++kept;
  }
  out.resize(kept);
  return out;
}

std::size_t Registry::size() const {
  const RankedGuard lock(mu_);
  return entries_.size();
}

}  // namespace hotc::obs
