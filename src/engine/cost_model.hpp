// Per-phase cold-start cost model, calibrated to the paper's measurements.
//
// Cold start = pull missing layers + extract + rootfs snapshot + namespace
// and cgroup setup + network provisioning + daemon/watchdog attach +
// language runtime init + application init.  Reuse (HotC) elides everything
// except application execution itself — exactly the phases the paper's
// Fig. 4 decomposes.
//
// Calibration anchors (server profile):
//   - Fig. 4(b): Go cold execution is 3.06x its hot execution; Java hot
//     execution is already ~1.07 s and cold start roughly doubles it.
//   - Fig. 4(c): bridge and host networking cost about the same as no
//     network; container mode halves total launch; overlay/routing take up
//     to 23x the host-mode launch time.
//   - Section V-B: the QR web function spends ~60 ms on real work while the
//     rest of the observed latency is allocation and runtime setup.
#pragma once

#include "core/time.hpp"
#include "core/units.hpp"
#include "engine/host.hpp"
#include "engine/image.hpp"
#include "spec/network_mode.hpp"
#include "spec/runspec.hpp"

namespace hotc::engine {

/// Phase-by-phase breakdown of one container launch.
struct StartupBreakdown {
  Duration pull = kZeroDuration;        // registry download (missing layers)
  Duration extract = kZeroDuration;     // layer decompression
  Duration rootfs = kZeroDuration;      // snapshot / union mount
  Duration namespaces = kZeroDuration;  // UTS/IPC/PID/mount namespaces
  Duration cgroups = kZeroDuration;     // resource controller setup
  Duration network = kZeroDuration;     // per-mode provisioning
  Duration volume = kZeroDuration;      // volume create + mount
  Duration attach = kZeroDuration;      // daemon bookkeeping / watchdog boot
  Duration runtime_init = kZeroDuration;  // language runtime (JVM, CPython…)

  [[nodiscard]] Duration total() const {
    return pull + extract + rootfs + namespaces + cgroups + network + volume +
           attach + runtime_init;
  }
};

/// Phase-by-phase cost of converting a donor runtime into a sibling's
/// configuration (cross-key sharing, src/share/).
struct RespecBreakdown {
  Duration clean = kZeroDuration;        // Algorithm 2 volume wipe + remount
  Duration reconfigure = kZeroDuration;  // env / exec-option delta re-apply
  Duration cgroups = kZeroDuration;      // resource-limit rewrite
  Duration layers = kZeroDuration;       // image-layer delta (tag change)

  [[nodiscard]] Duration total() const {
    return clean + reconfigure + cgroups + layers;
  }
};

class CostModel {
 public:
  explicit CostModel(HostProfile host) : host_(std::move(host)) {}

  [[nodiscard]] const HostProfile& host() const { return host_; }

  /// Registry download time for the given compressed byte count.
  [[nodiscard]] Duration pull_time(Bytes compressed) const;

  /// Layer decompression + write-out time.
  [[nodiscard]] Duration extract_time(Bytes compressed) const;

  [[nodiscard]] Duration rootfs_time(const Image& image) const;
  [[nodiscard]] Duration namespace_time(const spec::RunSpec& spec) const;
  [[nodiscard]] Duration cgroup_time(const spec::RunSpec& spec) const;

  /// Network provisioning.  For multi-host modes (overlay/routing) the
  /// first container on a network pays the expensive *create* path —
  /// VXLAN/route fabric setup plus distributed registration, the "up to
  /// 23x" of Fig. 4(c) — while later containers merely *attach*.  The
  /// create path's coordination cost is dominated by cluster round-trips,
  /// so it does not scale with host CPU factors.
  [[nodiscard]] Duration network_time(spec::NetworkMode mode,
                                      bool create_network = true) const;
  [[nodiscard]] Duration volume_time(std::size_t volume_count) const;
  [[nodiscard]] Duration attach_time() const;
  [[nodiscard]] Duration runtime_init_time(LanguageRuntime runtime) const;

  /// Container-mode launches share the proxy's namespaces and network; the
  /// saved phases make total launch about half of a bridge launch.
  [[nodiscard]] bool shares_sandbox(spec::NetworkMode mode) const {
    return mode == spec::NetworkMode::kContainer;
  }

  /// Full breakdown for a launch; `bytes_to_pull` is the compressed size of
  /// layers missing from the local store (0 = fully cached);
  /// `create_network` says whether a multi-host network must be created
  /// rather than joined.
  [[nodiscard]] StartupBreakdown startup(const spec::RunSpec& spec,
                                         const Image& image,
                                         Bytes bytes_to_pull,
                                         bool create_network = false) const;

  /// Compute time for `work` units of CPU work (1.0 = one second on the
  /// reference server).
  [[nodiscard]] Duration compute_time(double work_seconds) const;

  /// Volume wipe + remount during used-container cleanup (Algorithm 2).
  [[nodiscard]] Duration cleanup_time(Bytes dirty_bytes) const;

  /// Container stop (SIGTERM, cgroup teardown) and remove costs.
  [[nodiscard]] Duration stop_time() const;
  [[nodiscard]] Duration remove_time() const;

  /// cgroup-freezer pause: one control write, near-free.
  [[nodiscard]] Duration pause_time() const;
  /// Resume: thaw + fault the swapped-out pages back in.
  [[nodiscard]] Duration resume_time(Bytes swapped_out) const;

  /// Reconfiguring a *similar* container for a request whose re-applicable
  /// fields differ (paper §VII subset-key reuse): setting env vars and
  /// remounting differing volumes before the handler starts.
  [[nodiscard]] Duration reconfigure_time(const spec::RunSpec& container,
                                          const spec::RunSpec& request) const;

  /// Converting a donor of spec `donor` into `target`, a sibling in its
  /// compatibility class: wipe `dirty_bytes` and remount, re-apply the
  /// env/exec-option delta, rewrite cgroup limits when they differ and,
  /// when only the image tag differs, pull and extract the
  /// `missing_layer_bytes` of `target_image` and remount its rootfs.  The
  /// one conversion price: the engine charges it and the donor gate
  /// (share/donor_choice.hpp) weighs it against the cold start.
  [[nodiscard]] RespecBreakdown respecialize(const spec::RunSpec& donor,
                                             const spec::RunSpec& target,
                                             const Image& target_image,
                                             Bytes missing_layer_bytes,
                                             Bytes dirty_bytes) const;

  /// CRIU-style checkpoint of a warm container's process state to disk
  /// (the Replayable-Execution [34] approach the paper's related work
  /// discusses).  Dump cost scales with the resident set.
  [[nodiscard]] Duration checkpoint_time(Bytes resident) const;
  /// Restore from a checkpoint image: cheaper than a cold boot (no runtime
  /// or app init) but pays namespace/network re-provisioning plus reading
  /// the image back.
  [[nodiscard]] Duration restore_time(Bytes image_size,
                                      const spec::RunSpec& spec) const;

 private:
  HostProfile host_;
};

}  // namespace hotc::engine
