// Replays a short simulated day through FaasPlatform and prints every
// decision count it produced, for `ctest -L golden`.
//
// The day is a 1 h, 40-function workload::FunctionPopulation over
// ConfigMix::sibling_functions(40, 5) under the HotC policy with sharing
// and tiering on and max_live 8 (below the function count, so eviction,
// donation and restore all fire).  It runs once per seed.  The output is
// the latency summary, ControllerStats, the pool's ledger and the
// checkpoint store's counters; doubles print with 17 significant digits,
// so any change to a simulated decision or a virtual-time latency shows
// up as a diff against tests/golden/sim_day_replay.txt.
//
//   ./sim_day_replay > out.txt
#include <cinttypes>
#include <cstdio>

#include "faas/platform.hpp"
#include "workload/population.hpp"

using namespace hotc;

namespace {

void print_day(std::uint64_t seed) {
  workload::PopulationOptions popt;
  popt.functions = 40;
  popt.horizon = hours(1);
  popt.seed = seed;
  const auto population = workload::FunctionPopulation::generate(popt);
  const workload::ArrivalList arrivals = population.arrivals();
  const auto mix = workload::ConfigMix::sibling_functions(popt.functions, 5);

  faas::PlatformOptions opt;
  opt.policy = faas::PolicyKind::kHotC;
  opt.hotc.limits.max_live = 8;
  opt.hotc.enable_sharing = true;
  opt.hotc.tiering.enabled = true;
  opt.hotc.tiering.store.capacity_bytes = gib(1);
  faas::FaasPlatform platform(opt);
  const metrics::LatencySummary s = platform.run(arrivals, mix).summary();
  const HotCController& controller = *platform.hotc_controller();

  std::printf("== seed %" PRIu64 ": %zu arrivals\n", seed, arrivals.size());
  std::printf("latency count=%zu cold=%zu failed=%" PRIu64 "\n", s.count,
              s.cold_count, platform.failed_requests());
  std::printf("latency_ms mean=%.17g min=%.17g max=%.17g\n", s.mean_ms,
              s.min_ms, s.max_ms);
  std::printf("latency_ms p50=%.17g p90=%.17g p99=%.17g p999=%.17g\n",
              s.p50_ms, s.p90_ms, s.p99_ms, s.p999_ms);
  std::printf("latency_ms cold_mean=%.17g warm_mean=%.17g\n", s.cold_mean_ms,
              s.warm_mean_ms);

  const ControllerStats& c = controller.stats();
  std::printf("controller requests=%" PRIu64 " cold_starts=%" PRIu64
              " reuses=%" PRIu64 " ticks=%" PRIu64 "\n",
              c.requests, c.cold_starts, c.reuses,
              controller.adaptive_ticks());
  std::printf("controller donor_lookups=%" PRIu64 " donor_hits=%" PRIu64
              " respec_rejected=%" PRIu64 "\n",
              c.donor_lookups, c.donor_hits, c.respec_rejected);
  std::printf("controller donor_respec_s=%.17g cold_start_s=%.17g\n",
              c.donor_respec_seconds, c.cold_start_seconds);
  std::printf("controller restores=%" PRIu64 " checkpoints=%" PRIu64
              " prewarms=%" PRIu64 " retired=%" PRIu64 " evicted=%" PRIu64
              " drift_restarts=%" PRIu64 "\n",
              c.restores, c.checkpoints, c.prewarm_launches, c.retired,
              c.evicted, c.drift_restarts);
  std::printf("controller idle_container_s=%.17g\n",
              c.idle_container_seconds);

  const pool::PoolFlows f = controller.pool_view().flows();
  std::printf("pool admitted=%" PRIu64 " leased=%" PRIu64 " removed=%" PRIu64
              " donated=%" PRIu64 " respecialized=%" PRIu64
              " checkpointed=%" PRIu64 " restored=%" PRIu64
              " pooled=%" PRIu64 " paused=%" PRIu64 "\n",
              f.admitted, f.leased, f.removed, f.donated, f.respecialized,
              f.checkpointed, f.restored, f.pooled, f.paused);

  const snapshot::CheckpointStore& store = *controller.checkpoint_store();
  std::printf("store demotes=%" PRIu64 " restores=%" PRIu64
              " evictions=%" PRIu64 " rejected=%" PRIu64
              " entries=%zu bytes=%" PRId64 "\n",
              store.demotes(), store.restores(), store.evictions(),
              store.rejected(), store.entries(),
              static_cast<std::int64_t>(store.total_bytes()));
}

}  // namespace

int main() {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{104729}}) {
    print_day(seed);
  }
  return 0;
}
