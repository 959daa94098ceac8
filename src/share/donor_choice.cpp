#include "share/donor_choice.hpp"

#include <utility>

namespace hotc::share {

std::optional<DonorChoice> choose_donor(
    const DonorRegistry& donors, const pool::PoolView& view,
    const engine::CostModel& cost, const engine::FunctionHandle& request,
    const spec::RuntimeKey& key, Duration cold, Bytes missing_layer_bytes,
    double max_cost_ratio) {
  auto cand = donors.find_donor(request, key, view);
  if (!cand.has_value()) return std::nullopt;
  const Duration respec =
      cost.respecialize(cand->fn->spec, request.spec, request.image,
                        missing_layer_bytes, /*dirty_bytes=*/0)
          .total();
  const bool viable =
      cold > kZeroDuration && static_cast<double>(respec.count()) <=
                                  max_cost_ratio *
                                      static_cast<double>(cold.count());
  return DonorChoice{std::move(*cand), respec, viable};
}

}  // namespace hotc::share
