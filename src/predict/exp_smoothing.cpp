#include "predict/exp_smoothing.hpp"

#include "core/assert.hpp"

namespace hotc::predict {

const char* to_string(InitialValuePolicy policy) {
  switch (policy) {
    case InitialValuePolicy::kFirstObservation: return "first-obs";
    case InitialValuePolicy::kAverageOfFirstFive: return "avg-first-5";
  }
  return "?";
}

ExponentialSmoothing::ExponentialSmoothing(double alpha,
                                           InitialValuePolicy init)
    : alpha_(alpha), init_(init) {
  HOTC_ASSERT_MSG(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
}

std::string ExponentialSmoothing::name() const {
  return "exp-smoothing(a=" + std::to_string(alpha_).substr(0, 4) + "," +
         to_string(init_) + ")";
}

void ExponentialSmoothing::observe(double actual) {
  ++observed_;
  if (observed_ <= kSeedWindow) {
    history_.push_back(actual);
    // Seed window still filling: the averaged-history seed changes with
    // each new point, so recompute from scratch (cheap: <= 5 points).
    reseed();
    return;
  }
  smoothed_ = alpha_ * actual + (1.0 - alpha_) * smoothed_;
}

void ExponentialSmoothing::reseed() {
  HOTC_ASSERT(!history_.empty());
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
  seeded_ = true;
}

double ExponentialSmoothing::predict() const {
  return seeded_ ? smoothed_ : 0.0;
}

void ExponentialSmoothing::reset() {
  history_.clear();
  observed_ = 0;
  smoothed_ = 0.0;
  seeded_ = false;
}

}  // namespace hotc::predict
