// Markov-chain predictor (Section IV-C.3).
//
// The observed value range is partitioned into n region states
// R_i = [R_i1, R_i2); transitions are counted from the historical state
// sequence, giving the k-step transition probability matrix
// P_ij(k) = T_ij(k) / T_i (Equation 2).  The forecast takes the most
// probable next state from the current state's row and returns the
// interval midpoint (R_i1 + R_i2) / 2.
//
// Used in two ways: standalone (the Fig. 10(a) "Markov alone" curve /
// ablation) and as the volatility corrector inside HybridPredictor.
#pragma once

#include <cstddef>
#include <vector>

#include "predict/predictor.hpp"

namespace hotc::predict {

/// State-space partition plus transition counts over a scalar series the
/// chain owns.  This is the reusable machinery; MarkovChainPredictor and
/// HybridPredictor adapt it to the Predictor interface.
///
/// The partition is a function of the series' observed min and max only.
/// A value inside [min, max] therefore leaves every earlier state
/// assignment unchanged and adds exactly one transition, so observe() is
/// O(1) for it; only a new extreme pays the full recount fit() does.  The
/// counts after any sequence of observe() calls equal those of fit() over
/// the same series, bit for bit.
class RegionMarkovChain {
 public:
  explicit RegionMarkovChain(std::size_t regions = 6);

  /// Replace the series and rebuild the partition and the 1-step
  /// transition counts from scratch (bounds adapt to the observed
  /// min/max).
  void fit(const std::vector<double>& series);

  /// Append one value and update the counts incrementally.
  void observe(double value);

  [[nodiscard]] const std::vector<double>& series() const { return series_; }
  [[nodiscard]] std::size_t regions() const { return regions_; }
  [[nodiscard]] bool fitted() const { return fitted_; }

  /// Region index for a value (clamped into [0, regions)).
  [[nodiscard]] std::size_t state_of(double value) const;

  /// Midpoint of a region.
  [[nodiscard]] double midpoint(std::size_t state) const;

  /// P_ij(k): probability of moving from state i to j in k steps (matrix
  /// power of the 1-step matrix).  Rows with no observations are uniform.
  [[nodiscard]] double transition_probability(std::size_t i, std::size_t j,
                                              std::size_t k = 1) const;

  /// argmax_j P_ij(1) from the state of `current_value`; returns the
  /// midpoint of that state.  Falls back to current_value when unfitted.
  [[nodiscard]] double predict_from(double current_value) const;

  /// Expected next value: sum_j P_ij(1) * midpoint(j).
  [[nodiscard]] double expected_from(double current_value) const;

 private:
  [[nodiscard]] std::vector<double> row(std::size_t i) const;
  [[nodiscard]] std::vector<double> row_k(std::size_t i, std::size_t k) const;

  /// Partition and counts over the whole of series_.
  void recount();

  /// (hi_ - lo_) / regions_, and state_of() with it precomputed.
  [[nodiscard]] double region_width() const;
  [[nodiscard]] std::size_t state_in(double value, double width) const;

  std::size_t regions_;
  std::vector<double> series_;
  double min_ = 0.0;  // observed extremes of series_ (hi_ may be widened)
  double max_ = 0.0;
  double lo_ = 0.0;
  double hi_ = 1.0;
  std::vector<std::size_t> counts_;  // regions x regions, row-major
  std::vector<std::size_t> row_totals_;
  bool fitted_ = false;
};

class MarkovChainPredictor final : public Predictor {
 public:
  explicit MarkovChainPredictor(std::size_t regions = 6);

  [[nodiscard]] std::string name() const override;
  void observe(double actual) override;
  [[nodiscard]] double predict() const override;
  void reset() override;
  [[nodiscard]] std::size_t observations() const override {
    return chain_.series().size();
  }

  [[nodiscard]] const RegionMarkovChain& chain() const { return chain_; }

 private:
  RegionMarkovChain chain_;
};

}  // namespace hotc::predict
