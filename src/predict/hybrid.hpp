// HotC's hybrid predictor: exponential smoothing + Markov correction.
//
// "The exponential smoothing method can fit the available container data to
// find out its changing trend, which can rectify the limitations of the
// Markov chain prediction process ... the combination of the two can better
// improve prediction accuracy" (Section IV-C).
//
// Mechanism (the classical ES+Markov modification the paper describes):
//   1. Exponential smoothing produces the trend forecast e_t.
//   2. The *relative residuals* of past ES forecasts,
//      r_t = (actual_t - e_t) / max(|e_t|, eps), are partitioned into n
//      region states and a Markov chain is fitted over the residual-state
//      sequence.
//   3. The next residual state is predicted from the current one; its
//      interval midpoint r* corrects the trend: forecast = e_t * (1 + r*).
//
// A second mode (kValueState) applies the Markov chain directly over value
// regions, which is the literal reading of Equation 2; it is kept for the
// ablation bench.  Default is residual correction — it is what makes the
// 8 -> 19 jump of Fig. 10(a) recover quickly.
#pragma once

#include "predict/exp_smoothing.hpp"
#include "predict/markov.hpp"
#include "predict/predictor.hpp"

namespace hotc::predict {

enum class HybridMode {
  kResidualCorrection,  // Markov over ES residual states (default)
  kValueState,          // Markov directly over value states
};

const char* to_string(HybridMode mode);

struct HybridOptions {
  double alpha = 0.8;  // the paper's choice
  InitialValuePolicy init = InitialValuePolicy::kAverageOfFirstFive;
  std::size_t regions = 6;
  HybridMode mode = HybridMode::kResidualCorrection;
  /// Residual ratios are clamped to +/- this bound so one wild interval
  /// cannot blow up the state space.
  double residual_clamp = 1.5;
};

class HybridPredictor final : public Predictor {
 public:
  explicit HybridPredictor(HybridOptions options = {});

  [[nodiscard]] std::string name() const override;
  void observe(double actual) override;
  [[nodiscard]] double predict() const override;
  void reset() override;
  [[nodiscard]] std::size_t observations() const override {
    return observed_;
  }

  /// Drift restart == reset here: the residual chain was fitted on
  /// forecasts of the stale regime, so it must go with the trend state;
  /// alpha / region-count configuration survives and the smoother
  /// re-seeds from its averaged-history policy.
  void restart_smoothing() override { reset(); }

  [[nodiscard]] double smoothed_value() const override {
    return es_.smoothed();
  }

  [[nodiscard]] int markov_region() const override;

  [[nodiscard]] const HybridOptions& options() const { return options_; }
  [[nodiscard]] const ExponentialSmoothing& smoother() const { return es_; }

 private:
  HybridOptions options_;
  ExponentialSmoothing es_;
  /// Owns the state series: residual ratios (kResidualCorrection) or
  /// actuals (kValueState).
  RegionMarkovChain chain_;
  std::size_t observed_ = 0;
};

}  // namespace hotc::predict
