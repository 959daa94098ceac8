// Refit-from-scratch reference predictors, for exactness tests.
//
// These are the straightforward forms of ExponentialSmoothing,
// MarkovChainPredictor and HybridPredictor: each keeps its whole history
// and every observe() rebuilds the chain with RegionMarkovChain::fit()
// over it, so its cost grows with uptime.  The production predictors
// update their chains incrementally; they must match these bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "predict/hybrid.hpp"
#include "predict/markov.hpp"
#include "predict/predictor.hpp"

namespace hotc::predict::reference {

/// Exponential smoothing seeded from the mean of the first five values,
/// recomputed over the stored history while that window fills.
class RefitSmoother {
 public:
  RefitSmoother(double alpha, InitialValuePolicy init)
      : alpha_(alpha), init_(init) {}

  void observe(double actual) {
    history_.push_back(actual);
    if (history_.size() > 5) {
      smoothed_ = alpha_ * actual + (1.0 - alpha_) * smoothed_;
      return;
    }
    double seed = history_.front();
    if (init_ == InitialValuePolicy::kAverageOfFirstFive) {
      double sum = 0.0;
      for (const double x : history_) sum += x;
      seed = sum / static_cast<double>(history_.size());
    }
    smoothed_ = seed;
    for (const double x : history_) {
      smoothed_ = alpha_ * x + (1.0 - alpha_) * smoothed_;
    }
  }
  [[nodiscard]] double predict() const {
    return history_.empty() ? 0.0 : smoothed_;
  }

 private:
  double alpha_;
  InitialValuePolicy init_;
  std::vector<double> history_;
  double smoothed_ = 0.0;
};

class RefitMarkov final : public Predictor {
 public:
  explicit RefitMarkov(std::size_t regions = 6) : regions_(regions) {}

  [[nodiscard]] std::string name() const override { return "refit-markov"; }
  void observe(double actual) override {
    history_.push_back(actual);
    chain_ = RegionMarkovChain(regions_);
    chain_.fit(history_);
  }
  [[nodiscard]] double predict() const override {
    return history_.empty() ? 0.0 : chain_.predict_from(history_.back());
  }
  void reset() override {
    history_.clear();
    chain_ = RegionMarkovChain(regions_);
  }
  [[nodiscard]] std::size_t observations() const override {
    return history_.size();
  }

 private:
  std::size_t regions_;
  std::vector<double> history_;
  RegionMarkovChain chain_{regions_};
};

class RefitHybrid final : public Predictor {
 public:
  explicit RefitHybrid(HybridOptions options = {})
      : options_(options), es_(options.alpha, options.init) {}

  [[nodiscard]] std::string name() const override { return "refit-hybrid"; }
  void observe(double actual) override {
    const double es_forecast = es_.predict();
    actuals_.push_back(actual);
    es_.observe(actual);
    chain_ = RegionMarkovChain(options_.regions);
    if (options_.mode == HybridMode::kResidualCorrection) {
      if (actuals_.size() >= 2) {
        const double base = std::max(std::abs(es_forecast), 1e-9);
        residuals_.push_back(std::clamp((actual - es_forecast) / base,
                                        -options_.residual_clamp,
                                        options_.residual_clamp));
      }
      chain_.fit(residuals_);
    } else {
      chain_.fit(actuals_);
    }
  }
  [[nodiscard]] double predict() const override {
    const double trend = es_.predict();
    if (actuals_.empty()) return 0.0;
    if (options_.mode == HybridMode::kValueState) {
      if (!chain_.fitted()) return trend;
      return 0.5 * trend + 0.5 * chain_.predict_from(actuals_.back());
    }
    if (residuals_.empty() || !chain_.fitted()) return trend;
    return std::max(0.0,
                    trend * (1.0 + chain_.predict_from(residuals_.back())));
  }
  void reset() override {
    es_ = RefitSmoother(options_.alpha, options_.init);
    chain_ = RegionMarkovChain(options_.regions);
    actuals_.clear();
    residuals_.clear();
  }
  [[nodiscard]] std::size_t observations() const override {
    return actuals_.size();
  }
  [[nodiscard]] double smoothed_value() const override {
    return es_.predict();
  }
  [[nodiscard]] int markov_region() const override {
    if (!chain_.fitted()) return -1;
    const std::vector<double>& series =
        options_.mode == HybridMode::kValueState ? actuals_ : residuals_;
    return static_cast<int>(chain_.state_of(series.back()));
  }

 private:
  HybridOptions options_;
  RefitSmoother es_;
  RegionMarkovChain chain_{options_.regions};
  std::vector<double> actuals_;
  std::vector<double> residuals_;
};

}  // namespace hotc::predict::reference
