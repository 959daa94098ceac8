// ContainerEngine: the simulated Docker substitute.
//
// All operations are asynchronous against the discrete-event simulator:
// launch() walks the cold-start phases of CostModel::startup, exec() holds
// a CPU core for the modelled compute time, clean() runs Algorithm 2's
// volume wipe + remount, stop_and_remove() tears everything down.  Memory
// is accounted against a MemoryPool sized from the host profile; exceeding
// it swaps (slower execution) the way the paper's used_mem/used_swap
// heuristic anticipates.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "core/result.hpp"
#include "core/rng.hpp"
#include "engine/app.hpp"
#include "engine/container.hpp"
#include "engine/cost_model.hpp"
#include "engine/host.hpp"
#include "engine/network.hpp"
#include "engine/registry.hpp"
#include "engine/volume.hpp"
#include "obs/metrics.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace hotc::engine {

/// What one exec() cost, phase by phase.
struct ExecReport {
  ContainerId container = 0;
  bool app_was_warm = false;  // init skipped thanks to runtime reuse
  bool swapped = false;       // memory pressure forced swap-speed execution
  Duration queueing = kZeroDuration;  // waiting for a CPU core
  Duration reconfigure = kZeroDuration;  // subset-key env/volume re-apply
  Duration app_init = kZeroDuration;
  Duration download = kZeroDuration;
  Duration compute = kZeroDuration;

  [[nodiscard]] Duration total() const {
    return queueing + reconfigure + app_init + download + compute;
  }
};

/// What one launch() cost.
struct LaunchReport {
  ContainerId container = 0;
  StartupBreakdown breakdown;
};

/// What one respecialize() cost, phase by phase (cross-key sharing: the
/// donor-conversion pipeline — see src/share/).
struct RespecReport {
  ContainerId container = 0;
  Duration clean = kZeroDuration;        // Algorithm 2 volume wipe + remount
  Duration reconfigure = kZeroDuration;  // env / exec-option delta re-apply
  Duration cgroups = kZeroDuration;      // resource-limit rewrite
  Duration layers = kZeroDuration;       // image-layer delta (tag change)

  [[nodiscard]] Duration total() const {
    return clean + reconfigure + cgroups + layers;
  }
};

/// Failure injection for resilience tests and chaos benches.  Failures
/// are drawn from a dedicated seeded RNG so fault runs stay reproducible.
struct FaultModel {
  double launch_failure_rate = 0.0;  // image corrupt / runc error at start
  double exec_crash_rate = 0.0;      // the function process dies mid-run
  std::uint64_t seed = 99;
};

class ContainerEngine {
 public:
  ContainerEngine(sim::Simulator& sim, HostProfile profile);

  ContainerEngine(const ContainerEngine&) = delete;
  ContainerEngine& operator=(const ContainerEngine&) = delete;

  using LaunchCallback = std::function<void(Result<LaunchReport>)>;
  using ExecCallback = std::function<void(Result<ExecReport>)>;
  using DoneCallback = std::function<void(Result<bool>)>;

  /// Create and start a container for the spec (the cold path).  The
  /// container ends Idle (Existing-Available).
  void launch(const spec::RunSpec& spec, LaunchCallback cb);

  /// Run an application inside an Idle container.  The container is Busy
  /// for the duration and returns to Idle when done — cleanup is the
  /// caller's (HotC's) decision, per Algorithm 2.
  void exec(ContainerId id, const AppModel& app, ExecCallback cb);

  /// Subset-key variant: the request's spec may differ from the
  /// container's in the re-applicable fields (env, volumes, command); the
  /// difference is applied before the handler runs and charged as
  /// ExecReport::reconfigure.  The container adopts the request's
  /// re-applicable configuration.
  void exec_as(ContainerId id, const AppModel& app,
               const spec::RunSpec& request_spec, ExecCallback cb);

  /// Algorithm 2: wipe the container's volume and remount a fresh one.
  void clean(ContainerId id, DoneCallback cb);

  using RespecCallback = std::function<void(Result<RespecReport>)>;

  /// Cross-key sharing: convert an Idle donor container so it can serve
  /// `target`, a sibling spec in the donor's compatibility class (see
  /// spec/compat.hpp).  Runs Algorithm 2's volume wipe + remount, re-applies
  /// the env/exec-option delta, rewrites cgroup limits when they differ and
  /// pulls the image-layer delta when only the tag changed.  On success the
  /// container is Idle under the target's runtime key with the donor's warm
  /// app state discarded.  Fails without side effects if the container is
  /// not Idle or the specs are not class-compatible.
  void respecialize(ContainerId id, const spec::RunSpec& target,
                    RespecCallback cb);

  /// Synchronous estimate of converting a donor of spec `donor` into
  /// `target` (no side effects; the dirty-volume wipe is costed at zero
  /// bytes).  All-zero when the specs are not class-compatible — callers
  /// gate on spec::compatible() first.
  [[nodiscard]] RespecReport estimate_respecialize(
      const spec::RunSpec& donor, const spec::RunSpec& target) const;

  /// Freeze an Idle container (cgroup freezer): most of its idle footprint
  /// is swapped out, trading memory for a resume latency on next use.
  void pause(ContainerId id, DoneCallback cb);

  /// Thaw a Paused container back to Idle, faulting its pages back in.
  void resume(ContainerId id, DoneCallback cb);

  /// CRIU-style checkpoint: dump an Idle container's warm process state to
  /// disk.  The container keeps running; the checkpoint outlives it and
  /// can later be restored into a brand-new container that starts warm.
  using CheckpointId = std::uint64_t;
  using CheckpointCallback = std::function<void(Result<CheckpointId>)>;
  void checkpoint(ContainerId id, CheckpointCallback cb);

  /// Restore a checkpoint into a new Idle container.  Cheaper than a cold
  /// launch (no pull, no runtime/app init — the process state is in the
  /// image) but slower than reusing a live pooled container.
  void restore(CheckpointId checkpoint, LaunchCallback cb);

  /// Drop a checkpoint image from disk.
  bool drop_checkpoint(CheckpointId checkpoint);

  [[nodiscard]] std::size_t checkpoint_count() const {
    return checkpoints_.size();
  }
  [[nodiscard]] Bytes checkpoint_disk_used() const;

  /// What one demote() cost and produced.
  struct DemoteReport {
    ContainerId container = 0;
    Bytes image_size = 0;  // on-disk dump size
    Duration duration = kZeroDuration;
  };
  using DemoteCallback = std::function<void(Result<DemoteReport>)>;

  /// Tiered warm state (DESIGN.md §16): dump an Idle container to disk *in
  /// place*.  The container keeps its id, endpoint and volume, transitions
  /// Idle -> Checkpointed, and gives back its resident memory (~zero RAM
  /// while demoted).  Unlike checkpoint()/restore(), which clone state
  /// into a brand-new container, demote/restore_container is the consuming
  /// middle tier the snapshot::CheckpointStore manages.
  void demote(ContainerId id, DemoteCallback cb);

  /// Fault a demoted container's image back in: Checkpointed -> Idle, the
  /// warm-app state intact.  Costs restore_time(image, spec) — far below a
  /// cold start (no pull, no runtime/app init).
  void restore_container(ContainerId id, LaunchCallback cb);

  /// Evict a demoted container's on-disk image without ever thawing it:
  /// Checkpointed -> Stopping -> Removed.  Near-free — there is no
  /// process to stop, only metadata and the dump file to delete.
  void discard_checkpointed(ContainerId id, DoneCallback cb);

  /// Containers currently parked in the Checkpointed tier / their dumps.
  [[nodiscard]] std::size_t checkpointed_count() const;
  [[nodiscard]] Bytes checkpointed_disk_used() const;

  /// Graceful stop + remove; releases memory, endpoint and volume.
  void stop_and_remove(ContainerId id, DoneCallback cb);

  /// Synchronous estimate of a cold start for the spec (no side effects).
  [[nodiscard]] StartupBreakdown estimate_startup(
      const spec::RunSpec& spec) const;

  // --- introspection ---------------------------------------------------
  [[nodiscard]] const Container* find(ContainerId id) const;
  [[nodiscard]] std::size_t live_count() const;
  [[nodiscard]] std::size_t idle_count() const;
  [[nodiscard]] std::size_t busy_count() const;
  [[nodiscard]] Bytes memory_used() const { return memory_.used(); }
  [[nodiscard]] Bytes memory_high_watermark() const {
    return memory_.high_watermark();
  }
  [[nodiscard]] Bytes swap_used() const { return swap_used_; }
  [[nodiscard]] double memory_utilization() const {
    return memory_.utilization();
  }
  /// Instantaneous CPU utilisation: busy cores plus a small idle-container
  /// bookkeeping overhead (<0.1 % per live container, per Fig. 15(a)).
  [[nodiscard]] double cpu_utilization() const;

  [[nodiscard]] const HostProfile& host() const { return cost_.host(); }
  [[nodiscard]] const CostModel& cost_model() const { return cost_; }
  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] ImageStore& image_store() { return store_; }
  [[nodiscard]] NetworkManager& network() { return network_; }
  [[nodiscard]] VolumeManager& volumes() { return volumes_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Pre-pull an image so later launches are warm-cache (the paper stores
  /// images locally).
  void preload_image(const spec::ImageRef& ref);

  /// Install a failure-injection model (replaces any previous one).
  void set_fault_model(const FaultModel& faults);
  [[nodiscard]] std::uint64_t injected_launch_failures() const {
    return launch_failures_;
  }
  [[nodiscard]] std::uint64_t injected_exec_crashes() const {
    return exec_crashes_;
  }

  /// Total containers ever launched / execs ever run (for overhead benches).
  [[nodiscard]] std::uint64_t launches() const { return launches_; }
  [[nodiscard]] std::uint64_t execs() const { return execs_; }

  /// Register the FSM transition counters
  /// (`hotc_engine_state_transitions_total{to="..."}`) and the Algorithm 2
  /// clean-duration histogram with the registry and start feeding them.
  /// The registry must outlive the engine.
  void attach_metrics(obs::Registry& registry);

 private:
  using ContainerMap = std::map<ContainerId, Container>;

  void set_state(Container& c, ContainerState next);
  /// The only containers_ insert and erase; with set_state() they keep
  /// state_counts_ in step with the map.
  void add_container(Container c);
  void erase_container(ContainerMap::iterator it);
  /// HOTC_AUDIT builds: abort if state_counts_ disagrees with a scan.
  void audit_counts() const;
  /// Shared phase arithmetic behind respecialize()/estimate_respecialize().
  [[nodiscard]] RespecReport respec_phases(const spec::RunSpec& donor,
                                           const spec::RunSpec& target,
                                           Bytes dirty_bytes) const;
  /// Reserve memory, spilling to swap accounting when the pool is full.
  /// Returns true if the reservation spilled (execution must slow down).
  bool reserve_or_swap(Bytes amount);
  void release_memory(Bytes amount);

  sim::Simulator& sim_;
  CostModel cost_;
  Registry registry_;
  ImageStore store_;
  NetworkManager network_;
  VolumeManager volumes_;
  sim::MemoryPool memory_;
  sim::CountingResource cpu_;

  ContainerMap containers_;
  /// Containers per ContainerState; the count queries read these instead
  /// of walking containers_.
  std::array<std::size_t, kContainerStateCount> state_counts_{};
  ContainerId next_id_ = 1;
  Bytes swap_used_ = 0;
  std::uint64_t launches_ = 0;
  std::uint64_t execs_ = 0;

  /// Cached instrument handles, written once by attach_metrics; null until
  /// then, so the un-instrumented engine pays one branch per transition.
  std::array<obs::Counter*, kContainerStateCount> transition_counters_{};
  obs::LogHistogram* clean_duration_ms_ = nullptr;

  FaultModel faults_;
  Rng fault_rng_{99};
  std::uint64_t launch_failures_ = 0;
  std::uint64_t exec_crashes_ = 0;

  struct CheckpointImage {
    spec::RunSpec spec;
    Image image;
    std::string warm_app;
    Bytes size = 0;  // on-disk dump size
  };
  std::map<CheckpointId, CheckpointImage> checkpoints_;
  CheckpointId next_checkpoint_id_ = 1;

  /// Multi-host networks already created on this node (first overlay pays
  /// the create cost, later ones attach).
  bool overlay_created_ = false;
  bool routing_created_ = false;
  /// Hidden bridge endpoint that container-mode launches join.
  EndpointId proxy_endpoint_ = 0;
};

}  // namespace hotc::engine
