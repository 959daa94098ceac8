#include "pool/audit.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/crash_hook.hpp"
#include "pool/pool.hpp"

namespace hotc::audit {

namespace {

[[nodiscard]] Result<bool> exceeds(const char* part, std::uint64_t sub,
                                   const char* whole, std::uint64_t total,
                                   const char* why) {
  return make_error<bool>("pool.conservation",
                          std::string(part) + " " + std::to_string(sub) +
                              " exceeds " + whole + " " +
                              std::to_string(total) + " (" + why + ")");
}

}  // namespace

[[nodiscard]] Result<bool> verify(const pool::PoolFlows& f, Scope scope) {
  if (f.admitted != f.leased + f.removed + f.pooled) {
    return make_error<bool>(
        "pool.conservation",
        "admitted " + std::to_string(f.admitted) + " != leased " +
            std::to_string(f.leased) + " + removed " +
            std::to_string(f.removed) + " + pooled " +
            std::to_string(f.pooled));
  }
  if (f.paused > f.pooled) {
    return exceeds("paused", f.paused, "pooled", f.pooled,
                   "a frozen runtime is not pooled");
  }
  if (f.donated > f.leased) {
    return exceeds("donated", f.donated, "leased", f.leased,
                   "a donated container was double-counted");
  }
  if (f.respecialized > f.admitted) {
    return exceeds("respecialized", f.respecialized, "admitted", f.admitted,
                   "a conversion was not counted as an admission");
  }
  if (f.checkpointed > f.removed) {
    return exceeds("checkpointed", f.checkpointed, "removed", f.removed,
                   "a demotion was not counted as a removal");
  }
  if (f.restored > f.admitted) {
    return exceeds("restored", f.restored, "admitted", f.admitted,
                   "a restore was not counted as an admission");
  }
  if (scope == Scope::kShardSum && f.respecialized > f.donated) {
    return exceeds("respecialized", f.respecialized, "donated", f.donated,
                   "a respecialized residency never left a donor pool");
  }
  return true;
}

void enforce(const Result<bool>& verdict, const char* what) {
  if (verdict.ok()) return;
  const std::string error = verdict.error().to_string();
  std::fprintf(stderr, "HOTC pool conservation violated (%s): %s\n", what,
               error.c_str());
  // Give the black box (obs/blackbox.hpp) one chance to flush the flight
  // recorder / journal / TSDB rings, with the violation as its reason,
  // before the process dies.
  const std::string detail = std::string(what) + ": " + error;
  crash::notify_pre_abort("pool.audit", detail.c_str());
  std::abort();
}

}  // namespace hotc::audit
