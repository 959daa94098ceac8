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
#include <optional>
#include <string>

#include "core/result.hpp"
#include "core/rng.hpp"
#include "core/slab.hpp"
#include "engine/app.hpp"
#include "engine/container.hpp"
#include "engine/cost_model.hpp"
#include "engine/function_table.hpp"
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

  /// The function handle of the spec's runtime key in this engine's
  /// table (engine/function_table.hpp), built on the key's first sighting.
  /// The handle lives as long as the engine; every entry point below that
  /// takes a handle expects one from here.
  const FunctionHandle& prepare(const spec::RunSpec& spec) {
    return functions_.prepare(spec);
  }

  /// Create and start a container for the function (the cold path).  The
  /// container ends Idle (Existing-Available).
  void launch(const FunctionHandle& fn, LaunchCallback cb);
  void launch(const spec::RunSpec& spec, LaunchCallback cb) {
    launch(prepare(spec), std::move(cb));
  }

  /// Run an application inside an Idle container.  The container is Busy
  /// for the duration and returns to Idle when done — cleanup is the
  /// caller's (HotC's) decision, per Algorithm 2.
  void exec(ContainerId id, const AppModel& app, ExecCallback cb);

  /// Subset-key variant: the request's function may differ from the
  /// container's in the re-applicable fields (env, volumes, command); the
  /// difference is applied before the handler runs and charged as
  /// ExecReport::reconfigure.  The container adopts the request's
  /// re-applicable configuration.
  void exec_as(ContainerId id, const AppModel& app, const FunctionHandle& fn,
               ExecCallback cb);
  void exec_as(ContainerId id, const AppModel& app,
               const spec::RunSpec& request_spec, ExecCallback cb) {
    exec_as(id, app, prepare(request_spec), std::move(cb));
  }

  /// Algorithm 2: wipe the container's volume and remount a fresh one.
  void clean(ContainerId id, DoneCallback cb);

  using RespecCallback = std::function<void(Result<RespecBreakdown>)>;

  /// Cross-key sharing: convert an Idle donor container so it can serve
  /// `target`, a sibling function in the donor's compatibility class (see
  /// spec/compat.hpp).  Runs Algorithm 2's volume wipe + remount, re-applies
  /// the env/exec-option delta, rewrites cgroup limits when they differ and
  /// pulls the image-layer delta when only the tag changed, priced and
  /// applied with the target handle's image and key.  On success the
  /// container is Idle under the target's runtime key with the donor's warm
  /// app state discarded.  Fails without side effects if the container is
  /// not Idle or the two are not class-compatible.
  void respecialize(ContainerId id, const FunctionHandle& target,
                    RespecCallback cb);
  void respecialize(ContainerId id, const spec::RunSpec& target,
                    RespecCallback cb) {
    respecialize(id, prepare(target), std::move(cb));
  }

  /// Freeze an Idle container (cgroup freezer): most of its idle footprint
  /// is swapped out, trading memory for a resume latency on next use.
  void pause(ContainerId id, DoneCallback cb);

  /// Thaw a Paused container back to Idle, faulting its pages back in.
  void resume(ContainerId id, DoneCallback cb);

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
  /// while demoted).  demote/restore_container is the consuming middle
  /// tier the snapshot::CheckpointStore manages.
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

  /// Synchronous estimate of a cold start for the function (no side
  /// effects): live, because it depends on the image store's misses and on
  /// whether a multi-host network exists yet.  Zero for an unresolved
  /// image.
  [[nodiscard]] StartupBreakdown estimate_startup(
      const FunctionHandle& fn) const;
  [[nodiscard]] StartupBreakdown estimate_startup(const spec::RunSpec& spec) {
    return estimate_startup(prepare(spec));
  }

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

  /// Export the engine to `registry`: a collector reads its occupancy,
  /// memory, CPU, launch/exec/failure totals and FSM transitions per
  /// destination state (`hotc_engine_state_transitions_total{to="..."}`)
  /// at each snapshot, and the Algorithm 2 clean durations feed a
  /// histogram.  Called once, by the engine's owner; the registry must
  /// outlive the engine.
  void attach_metrics(obs::Registry& registry);

 private:
  /// A container's slab entry: the public record plus the state of its
  /// one operation in flight.  The Fig. 7 FSM runs one at a time (an exec
  /// while Busy, a volume wipe or a conversion while Cleaning), so the
  /// pending reports and the exec/clean/conversion continuation live
  /// here, and the events of a request's chain capture only {this, slot}.
  struct Entry {
    Container c;
    ExecReport report;  // the pending exec's, filled in as it runs
    TimePoint queued_at = kZeroDuration;
    Bytes writes = 0;
    bool inject_crash = false;
    std::string app_name;  // becomes warm_app when the exec succeeds
    RespecBreakdown respec;  // the pending conversion's
    const FunctionHandle* respec_to = nullptr;
    ExecCallback on_exec;
    DoneCallback on_clean;
    RespecCallback on_respec;

    [[nodiscard]] bool in_flight() const {
      return on_exec || on_clean || on_respec;
    }
  };

  void set_state(Container& c, ContainerState next);
  /// The only containers_ insert and erase; with set_state() they keep
  /// state_counts_ in step with the slab.
  void add_container(Container c);
  void erase_container(ContainerId id);
  /// HOTC_AUDIT builds: abort if state_counts_ disagrees with a scan.
  void audit_counts() const;
  /// Reserve memory, spilling to swap accounting when the pool is full.
  /// Returns true if the reservation spilled (execution must slow down).
  bool reserve_or_swap(Bytes amount);
  void release_memory(Bytes amount);
  /// exec() and exec_as(): `request` is null for the as-configured path.
  void run_exec(ContainerId id, const AppModel& app,
                const FunctionHandle* request, ExecCallback cb);
  /// The exec's CPU core is granted / its compute is over.
  void exec_granted(std::uint32_t slot);
  void exec_done(std::uint32_t slot);
  /// clean()'s wipe is over.
  void clean_done(std::uint32_t slot);
  /// respecialize()'s conversion is over.
  void respec_done(std::uint32_t slot);

  sim::Simulator& sim_;
  CostModel cost_;
  Registry registry_;
  /// Handles over registry_ and cost_ (declared after both).
  FunctionTable functions_{registry_, cost_};
  ImageStore store_;
  NetworkManager network_;
  VolumeManager volumes_;
  sim::MemoryPool memory_;
  sim::CountingResource cpu_;

  /// Containers by id (ids are never reused; slots are).
  IdSlab<Entry> containers_;
  /// Containers per ContainerState; the count queries read these instead
  /// of walking containers_.
  std::array<std::size_t, kContainerStateCount> state_counts_{};
  ContainerId next_id_ = 1;
  Bytes swap_used_ = 0;
  std::uint64_t launches_ = 0;
  std::uint64_t execs_ = 0;

  /// Transitions into each ContainerState, counted by set_state().
  std::array<std::uint64_t, kContainerStateCount> transitions_{};
  /// Written once by attach_metrics; null until then.
  obs::LogHistogram* clean_duration_ms_ = nullptr;

  FaultModel faults_;
  Rng fault_rng_{99};
  std::uint64_t launch_failures_ = 0;
  std::uint64_t exec_crashes_ = 0;

  /// Multi-host networks already created on this node (first overlay pays
  /// the create cost, later ones attach).
  bool overlay_created_ = false;
  bool routing_created_ = false;
  /// Hidden bridge endpoint that container-mode launches join.
  EndpointId proxy_endpoint_ = 0;

  obs::Registry::Collection collection_;  // last: unregisters first
};

}  // namespace hotc::engine
