// Container object and lifecycle FSM.
//
// The externally visible states follow Fig. 7 of the paper: Not-Existing
// (-1), Existing-Not-Available (0), Existing-Available (1).  Internally the
// engine tracks the full lifecycle so that tests can assert legal
// transitions: Provisioning -> Idle <-> Busy -> Cleaning -> Idle, and
// Stopping -> Removed at the end of life.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/time.hpp"
#include "core/units.hpp"
#include "engine/network.hpp"
#include "engine/volume.hpp"

namespace hotc::engine {

using ContainerId = std::uint64_t;

enum class ContainerState {
  kProvisioning,  // pulling / creating / starting
  kIdle,          // Existing-Available (1)
  kBusy,          // Existing-Not-Available (0): executing a function
  kCleaning,      // Existing-Not-Available (0): volume wipe in progress
  kPaused,        // Existing-Not-Available (0): cgroup-frozen, pages cold
  kCheckpointed,  // Existing-Not-Available (0): CRIU image on disk, ~0 RAM
  kStopping,
  kRemoved,       // Not-Existing (-1)
};

const char* to_string(ContainerState state);

inline constexpr std::size_t kContainerStateCount = 8;

constexpr std::size_t state_index(ContainerState state) {
  return static_cast<std::size_t>(state);
}

/// Map the internal state to the paper's three-valued availability.
/// -1 = Not-Existing, 0 = Existing-Not-Available, 1 = Existing-Available.
constexpr int availability_code(ContainerState state) {
  switch (state) {
    case ContainerState::kRemoved:
      return -1;
    case ContainerState::kIdle:
      return 1;
    case ContainerState::kProvisioning:
    case ContainerState::kBusy:
    case ContainerState::kCleaning:
    case ContainerState::kPaused:
    case ContainerState::kCheckpointed:
    case ContainerState::kStopping:
      return 0;
  }
  return -1;
}

/// The Fig. 7 FSM as a constexpr adjacency matrix —
/// kTransitionTable[from][to].  transition_allowed() reads this table, and
/// the static_asserts below prove its global shape at compile time; an
/// edit that breaks an invariant fails the build, not a 2 a.m. pager.
inline constexpr auto kTransitionTable = [] {
  using S = ContainerState;
  std::array<std::array<bool, kContainerStateCount>, kContainerStateCount>
      table{};
  const auto allow = [&table](S from, S to) {
    table[state_index(from)][state_index(to)] = true;
  };
  allow(S::kProvisioning, S::kIdle);
  allow(S::kProvisioning, S::kBusy);
  allow(S::kProvisioning, S::kStopping);
  allow(S::kIdle, S::kBusy);
  allow(S::kIdle, S::kPaused);
  allow(S::kIdle, S::kStopping);
  allow(S::kBusy, S::kCleaning);
  allow(S::kBusy, S::kIdle);
  allow(S::kBusy, S::kStopping);
  allow(S::kCleaning, S::kIdle);
  allow(S::kCleaning, S::kStopping);
  allow(S::kPaused, S::kIdle);
  allow(S::kPaused, S::kStopping);
  // Tiered warm state (DESIGN.md §16): only a quiesced Idle runtime can
  // be dumped to disk; restore re-enters Idle, eviction winds down.
  allow(S::kIdle, S::kCheckpointed);
  allow(S::kCheckpointed, S::kIdle);
  allow(S::kCheckpointed, S::kStopping);
  allow(S::kStopping, S::kRemoved);
  // kRemoved: no outgoing edges (proved below).
  return table;
}();

/// Whether a transition is legal in the Fig. 7 FSM.
constexpr bool transition_allowed(ContainerState from, ContainerState to) {
  return kTransitionTable[state_index(from)][state_index(to)];
}

namespace fsm_proofs {

/// Transitive closure query over the table: can `from` reach `target`?
constexpr bool reaches(ContainerState from, ContainerState target) {
  std::array<bool, kContainerStateCount> visited{};
  visited[state_index(from)] = true;
  // Fixed-point: at most kContainerStateCount sweeps close the relation.
  for (std::size_t pass = 0; pass < kContainerStateCount; ++pass) {
    for (std::size_t s = 0; s < kContainerStateCount; ++s) {
      if (!visited[s]) continue;
      for (std::size_t t = 0; t < kContainerStateCount; ++t) {
        if (kTransitionTable[s][t]) visited[t] = true;
      }
    }
  }
  return visited[state_index(target)];
}

constexpr bool no_exit_from_removed() {
  for (std::size_t t = 0; t < kContainerStateCount; ++t) {
    if (kTransitionTable[state_index(ContainerState::kRemoved)][t]) {
      return false;
    }
  }
  return true;
}

constexpr bool every_state_reaches_removed() {
  for (std::size_t s = 0; s < kContainerStateCount; ++s) {
    const auto state = static_cast<ContainerState>(s);
    if (state == ContainerState::kRemoved) continue;
    if (!reaches(state, ContainerState::kRemoved)) return false;
  }
  return true;
}

constexpr bool every_state_reachable_from_birth() {
  for (std::size_t s = 0; s < kContainerStateCount; ++s) {
    const auto state = static_cast<ContainerState>(s);
    if (state == ContainerState::kProvisioning) continue;
    if (!reaches(ContainerState::kProvisioning, state)) return false;
  }
  return true;
}

constexpr bool no_rebirth_and_no_self_loops() {
  for (std::size_t s = 0; s < kContainerStateCount; ++s) {
    // Provisioning is the birth state: nothing transitions back into it.
    if (kTransitionTable[s][state_index(ContainerState::kProvisioning)]) {
      return false;
    }
    if (kTransitionTable[s][s]) return false;
  }
  return true;
}

constexpr bool availability_matches_paper() {
  for (std::size_t s = 0; s < kContainerStateCount; ++s) {
    const auto state = static_cast<ContainerState>(s);
    const int code = availability_code(state);
    if (code < -1 || code > 1) return false;
    // Exactly kIdle is Existing-Available (1); exactly kRemoved is
    // Not-Existing (-1); everything else is Existing-Not-Available (0).
    if ((code == 1) != (state == ContainerState::kIdle)) return false;
    if ((code == -1) != (state == ContainerState::kRemoved)) return false;
  }
  return true;
}

static_assert(no_exit_from_removed(),
              "Fig. 7: Removed (Not-Existing) must be terminal");
static_assert(every_state_reaches_removed(),
              "Fig. 7: every lifecycle state must be able to wind down");
static_assert(every_state_reachable_from_birth(),
              "Fig. 7: dead states in the table indicate a typo'd edge");
static_assert(no_rebirth_and_no_self_loops(),
              "Fig. 7: provisioning happens once; self-edges are no-ops");
static_assert(availability_matches_paper(),
              "availability must encode {-1, 0, 1} exactly as the paper");
static_assert(transition_allowed(ContainerState::kStopping,
                                 ContainerState::kRemoved) &&
                  !transition_allowed(ContainerState::kIdle,
                                      ContainerState::kRemoved),
              "removal must pass through Stopping");
static_assert(transition_allowed(ContainerState::kIdle,
                                 ContainerState::kCheckpointed) &&
                  !transition_allowed(ContainerState::kBusy,
                                      ContainerState::kCheckpointed) &&
                  !transition_allowed(ContainerState::kPaused,
                                      ContainerState::kCheckpointed) &&
                  !transition_allowed(ContainerState::kProvisioning,
                                      ContainerState::kCheckpointed),
              "only a quiesced Idle runtime can be checkpointed");
static_assert(transition_allowed(ContainerState::kCheckpointed,
                                 ContainerState::kIdle) &&
                  transition_allowed(ContainerState::kCheckpointed,
                                     ContainerState::kStopping) &&
                  !transition_allowed(ContainerState::kCheckpointed,
                                      ContainerState::kBusy) &&
                  !transition_allowed(ContainerState::kCheckpointed,
                                      ContainerState::kPaused) &&
                  !transition_allowed(ContainerState::kCheckpointed,
                                      ContainerState::kRemoved),
              "a checkpoint either restores to Idle or winds down through "
              "Stopping; it never runs or pauses directly from disk");

}  // namespace fsm_proofs

struct FunctionHandle;  // engine/function_table.hpp

struct Container {
  ContainerId id = 0;
  /// The function the container is configured for, from its engine's
  /// table: its spec, runtime key and image.  A conversion re-points it
  /// at the target, and a subset-key exec at the request's function.
  const FunctionHandle* fn = nullptr;
  ContainerState state = ContainerState::kProvisioning;

  EndpointId endpoint = 0;
  VolumeId volume = 0;

  TimePoint created_at = kZeroDuration;
  TimePoint last_used = kZeroDuration;
  std::uint64_t exec_count = 0;

  Bytes idle_memory = 0;   // resident while idle (~0.7 MB per paper)
  Bytes busy_memory = 0;   // extra memory while executing
  Bytes paused_released = 0;  // idle pages swapped out while Paused
  Bytes checkpoint_released = 0;  // RAM given back while Checkpointed
  Bytes checkpoint_image = 0;     // on-disk dump size while Checkpointed

  /// Application name whose init work is already warm in this container
  /// (model loaded, JIT compiled).  Reuse by the same app skips app init.
  std::string warm_app;
};

}  // namespace hotc::engine
