#include "predict/hybrid.hpp"

#include <algorithm>
#include <cmath>

namespace hotc::predict {
namespace {
constexpr double kEps = 1e-9;
}

const char* to_string(HybridMode mode) {
  switch (mode) {
    case HybridMode::kResidualCorrection: return "residual";
    case HybridMode::kValueState: return "value-state";
  }
  return "?";
}

HybridPredictor::HybridPredictor(HybridOptions options)
    : options_(options),
      es_(options.alpha, options.init),
      chain_(options.regions) {}

std::string HybridPredictor::name() const {
  return "hotc-hybrid(a=" + std::to_string(options_.alpha).substr(0, 4) +
         ",n=" + std::to_string(options_.regions) + "," +
         to_string(options_.mode) + ")";
}

void HybridPredictor::observe(double actual) {
  // The forecast the smoother *would have made* for this interval, before
  // seeing it — that is the residual base.
  const double es_forecast = es_.predict();
  ++observed_;
  es_.observe(actual);

  if (options_.mode == HybridMode::kResidualCorrection) {
    if (observed_ >= 2) {  // first forecast is the cold 0; skip it
      const double base = std::max(std::abs(es_forecast), kEps);
      double r = (actual - es_forecast) / base;
      r = std::clamp(r, -options_.residual_clamp, options_.residual_clamp);
      chain_.observe(r);
    }
  } else {
    chain_.observe(actual);
  }
}

double HybridPredictor::predict() const {
  const double trend = es_.predict();
  if (observed_ == 0) return 0.0;

  if (options_.mode == HybridMode::kValueState) {
    if (!chain_.fitted()) return trend;
    // Blend: the Markov midpoint corrects the trend toward the historical
    // state dynamics; equal weight keeps both models' strengths.
    return 0.5 * trend + 0.5 * chain_.predict_from(chain_.series().back());
  }

  if (!chain_.fitted()) return trend;
  const double next_residual = chain_.predict_from(chain_.series().back());
  return std::max(0.0, trend * (1.0 + next_residual));
}

int HybridPredictor::markov_region() const {
  // A fitted chain holds at least two values of its series.
  if (!chain_.fitted()) return -1;
  return static_cast<int>(chain_.state_of(chain_.series().back()));
}

void HybridPredictor::reset() {
  es_.reset();
  chain_ = RegionMarkovChain(options_.regions);
  observed_ = 0;
}

}  // namespace hotc::predict
