#include "share/donor_registry.hpp"

#include <mutex>

namespace hotc::share {

namespace {
/// Classes are few (one per base-image × namespace shape); eight stripes
/// keep contention negligible without wasting cache lines.
constexpr std::size_t kDefaultStripes = 8;
}  // namespace

DonorRegistry::DonorRegistry(std::size_t stripe_count) {
  if (stripe_count == 0) stripe_count = kDefaultStripes;
  stripes_.reserve(stripe_count);
  for (std::size_t i = 0; i < stripe_count; ++i) {
    stripes_.push_back(
        std::make_unique<Stripe>(static_cast<std::uint32_t>(i)));
  }
}

spec::CompatClass DonorRegistry::record(const spec::RuntimeKey& key,
                                        const engine::FunctionHandle& fn) {
  const spec::CompatClass cls = fn.compat();
  Stripe& stripe = stripe_for(cls);
  const RankedGuard lock(stripe.mu);
  Member& m = stripe.classes[cls][key];
  m.fn = &fn;  // refresh; nomination state survives the upsert
  return cls;
}

void DonorRegistry::set_flags(const spec::CompatClass& cls,
                              const spec::RuntimeKey& key, bool nominated,
                              bool muted) {
  Stripe& stripe = stripe_for(cls);
  const RankedGuard lock(stripe.mu);
  const auto cit = stripe.classes.find(cls);
  if (cit == stripe.classes.end()) return;
  const auto mit = cit->second.find(key);
  if (mit == cit->second.end()) return;
  mit->second.nominated = nominated;
  mit->second.muted = muted;
}

std::optional<DonorCandidate> DonorRegistry::find_donor(
    const engine::FunctionHandle& request, const spec::RuntimeKey& exclude,
    const pool::PoolView& view) const {
  const spec::CompatClass cls = request.compat();
  Stripe& stripe = stripe_for(cls);
  // The stripe lock (rank 45) is held across the PoolView liveness reads
  // below, which take pool-shard locks (rank 50) — a legal downward
  // acquisition; see the band table in core/ranked_mutex.hpp.
  const RankedGuard lock(stripe.mu);
  const auto cit = stripe.classes.find(cls);
  if (cit == stripe.classes.end()) return std::nullopt;

  std::optional<DonorCandidate> best;
  for (const auto& [key, member] : cit->second) {
    if (key == exclude) continue;
    if (member.muted) continue;  // drift cooldown: forecast distrusted
    if (best.has_value() && !member.nominated) continue;  // can't improve
    // Surplus-only donation: a nominated key (Algorithm 3 forecast it
    // over-provisioned) may give up its last idle runtime; any other key
    // must keep one behind for its own next request — otherwise sharing
    // would convert exact-match hits elsewhere into misses.
    const std::size_t reserve = member.nominated ? 0 : 1;
    if (view.num_available(key) <= reserve) continue;
    best = DonorCandidate{key, member.fn, member.nominated};
    if (best->nominated) break;  // Algorithm-3 surplus wins outright
  }
  if (best.has_value()) {
    found_.fetch_add(1, std::memory_order_relaxed);
  }
  return best;
}

std::size_t DonorRegistry::known_keys() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    const RankedGuard lock(stripe->mu);
    for (const auto& [cls, members] : stripe->classes) {
      (void)cls;
      total += members.size();
    }
  }
  return total;
}

}  // namespace hotc::share
