#include "predict/markov.hpp"

#include <algorithm>
#include <cmath>

#include "core/assert.hpp"

namespace hotc::predict {

RegionMarkovChain::RegionMarkovChain(std::size_t regions)
    : regions_(regions),
      counts_(regions * regions, 0),
      row_totals_(regions, 0) {
  HOTC_ASSERT(regions >= 2);
}

void RegionMarkovChain::fit(const std::vector<double>& series) {
  series_ = series;
  if (!series_.empty()) {
    const auto [mn, mx] = std::minmax_element(series_.begin(), series_.end());
    min_ = *mn;
    max_ = *mx;
  }
  recount();
}

void RegionMarkovChain::observe(double value) {
  const bool first = series_.empty();
  const bool extreme = first || value < min_ || value > max_;
  min_ = first ? value : std::min(min_, value);
  max_ = first ? value : std::max(max_, value);
  series_.push_back(value);
  if (extreme || !fitted_) {
    recount();
    return;
  }
  // Bounds unchanged: every earlier state is too, and the new value adds
  // exactly one transition.
  const std::size_t i = state_of(series_[series_.size() - 2]);
  ++counts_[i * regions_ + state_of(value)];
  ++row_totals_[i];
}

void RegionMarkovChain::recount() {
  std::fill(counts_.begin(), counts_.end(), 0);
  std::fill(row_totals_.begin(), row_totals_.end(), 0);
  fitted_ = false;
  if (series_.size() < 2) return;

  lo_ = min_;
  hi_ = max_;
  if (hi_ <= lo_) hi_ = lo_ + 1.0;  // constant series: one wide region

  // Each value's state is computed once: a transition's target is the
  // next one's source.
  const double width = region_width();
  std::size_t i = state_in(series_[0], width);
  for (std::size_t t = 1; t < series_.size(); ++t) {
    const std::size_t j = state_in(series_[t], width);
    ++counts_[i * regions_ + j];
    ++row_totals_[i];
    i = j;
  }
  fitted_ = true;
}

double RegionMarkovChain::region_width() const {
  return (hi_ - lo_) / static_cast<double>(regions_);
}

std::size_t RegionMarkovChain::state_in(double value, double width) const {
  if (value <= lo_) return 0;
  if (value >= hi_) return regions_ - 1;
  const auto idx = static_cast<std::size_t>((value - lo_) / width);
  return std::min(idx, regions_ - 1);
}

std::size_t RegionMarkovChain::state_of(double value) const {
  return state_in(value, region_width());
}

double RegionMarkovChain::midpoint(std::size_t state) const {
  HOTC_ASSERT(state < regions_);
  return lo_ + region_width() * (static_cast<double>(state) + 0.5);
}

std::vector<double> RegionMarkovChain::row(std::size_t i) const {
  HOTC_ASSERT(i < regions_);
  std::vector<double> r(regions_, 0.0);
  if (row_totals_[i] == 0) {
    // Unvisited state: uniform prior.
    std::fill(r.begin(), r.end(), 1.0 / static_cast<double>(regions_));
    return r;
  }
  for (std::size_t j = 0; j < regions_; ++j) {
    r[j] = static_cast<double>(counts_[i * regions_ + j]) /
           static_cast<double>(row_totals_[i]);
  }
  return r;
}

std::vector<double> RegionMarkovChain::row_k(std::size_t i,
                                             std::size_t k) const {
  HOTC_ASSERT(k >= 1);
  std::vector<double> current = row(i);
  for (std::size_t step = 1; step < k; ++step) {
    std::vector<double> next(regions_, 0.0);
    for (std::size_t mid = 0; mid < regions_; ++mid) {
      if (current[mid] == 0.0) continue;
      const auto r = row(mid);
      for (std::size_t j = 0; j < regions_; ++j) {
        next[j] += current[mid] * r[j];
      }
    }
    current = std::move(next);
  }
  return current;
}

double RegionMarkovChain::transition_probability(std::size_t i,
                                                 std::size_t j,
                                                 std::size_t k) const {
  HOTC_ASSERT(i < regions_ && j < regions_);
  if (!fitted_) return 1.0 / static_cast<double>(regions_);
  return row_k(i, k)[j];
}

double RegionMarkovChain::predict_from(double current_value) const {
  if (!fitted_) return current_value;
  // argmax_j P_ij over the count row itself: dividing by the row total
  // keeps the order, the first maximum wins as in max_element, and an
  // unvisited (uniform) row gives state 0.
  const std::size_t* counts = &counts_[state_of(current_value) * regions_];
  std::size_t best = 0;
  for (std::size_t j = 1; j < regions_; ++j) {
    if (counts[j] > counts[best]) best = j;
  }
  return midpoint(best);
}

double RegionMarkovChain::expected_from(double current_value) const {
  if (!fitted_) return current_value;
  // sum_j P_ij * midpoint(j), each term as row() would give it.
  const std::size_t i = state_of(current_value);
  const auto total = static_cast<double>(row_totals_[i]);
  const double uniform = 1.0 / static_cast<double>(regions_);
  double expected = 0.0;
  for (std::size_t j = 0; j < regions_; ++j) {
    const double p =
        row_totals_[i] == 0
            ? uniform
            : static_cast<double>(counts_[i * regions_ + j]) / total;
    expected += p * midpoint(j);
  }
  return expected;
}

MarkovChainPredictor::MarkovChainPredictor(std::size_t regions)
    : chain_(regions) {}

std::string MarkovChainPredictor::name() const {
  return "markov(n=" + std::to_string(chain_.regions()) + ")";
}

void MarkovChainPredictor::observe(double actual) { chain_.observe(actual); }

double MarkovChainPredictor::predict() const {
  if (chain_.series().empty()) return 0.0;
  return chain_.predict_from(chain_.series().back());
}

void MarkovChainPredictor::reset() {
  chain_ = RegionMarkovChain(chain_.regions());
}

}  // namespace hotc::predict
