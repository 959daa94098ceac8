// Exponential smoothing (Equation 1 of the paper):
//
//   e_{k,t} = alpha * history[k][t] + (1 - alpha) * e_{k,t-1}
//
// alpha in (0,1); the paper chooses 0.8 for its volatile serverless
// workloads and discusses 0.1–0.3 for stable series.  Initial value: the
// observation itself when the series is long (>= 20 points the influence
// is negligible), otherwise the average of the first five observations —
// "here we adopt the average of historical data as smoothed initial
// value."  Both policies are implemented for the Fig. 10(b) sensitivity
// study.
#pragma once

#include <vector>

#include "predict/predictor.hpp"

namespace hotc::predict {

enum class InitialValuePolicy {
  kFirstObservation,   // seed with history[k][1]
  kAverageOfFirstFive, // seed with mean(history[k][1..5]) (paper's choice)
};

const char* to_string(InitialValuePolicy policy);

class ExponentialSmoothing final : public Predictor {
 public:
  explicit ExponentialSmoothing(
      double alpha = 0.8,
      InitialValuePolicy init = InitialValuePolicy::kAverageOfFirstFive);

  [[nodiscard]] std::string name() const override;
  void observe(double actual) override;
  [[nodiscard]] double predict() const override;
  void reset() override;
  [[nodiscard]] std::size_t observations() const override {
    return observed_;
  }

  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] InitialValuePolicy initial_policy() const { return init_; }

  /// The current smoothed value (equals predict(); exposed for tests).
  [[nodiscard]] double smoothed() const { return predict(); }

 private:
  /// The averaged-history seed covers the first five observations.
  static constexpr std::size_t kSeedWindow = 5;

  /// Recompute the smoothed value over the buffered seed window.  Called
  /// only while the window is still filling; afterwards the update is O(1).
  void reseed();

  double alpha_;
  InitialValuePolicy init_;
  std::vector<double> history_;  // the seed window only
  std::size_t observed_ = 0;
  double smoothed_ = 0.0;
  bool seeded_ = false;
};

}  // namespace hotc::predict
