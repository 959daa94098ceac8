// Black-box crash dump: the last seconds of flight data, written from a
// dying process.
//
// A BlackBox pre-opens and pre-sizes a dump file at startup, records raw
// pointers to the stable in-memory observability buffers — the
// FlightRecorder span ring, the DecisionJournal ring, the
// TimeSeriesStore's five fixed regions, plus small POD mirrors of the
// profiler and SLO state refreshed each adaptive tick — and, when the
// process dies, writes them all out with nothing but write(2)-level
// primitives.
//
// Two triggers share one dump path:
//   * fatal signals (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL) via
//     install_signal_handlers(); the handler dumps, restores SIG_DFL and
//     re-raises so the exit status still reports the signal;
//   * deliberate aborts — the pool-ledger auditor (pool/audit.cpp), lock
//     rank violations (core/ranked_mutex.hpp) and the journal's
//     out-of-band-tick audit — via the core/crash_hook.hpp pre-abort
//     seam (install_abort_hook()).
//
// Async-signal-safety contract (machine-checked by hotc_analyze's
// signal-purity rule, rooted at dump_now): the dump path allocates
// nothing, takes no mutex of any rank, and calls only
// async-signal-safe libc (write, lseek, fsync, clock_gettime, getpid).
// A CAS one-shot guard makes re-entry (abort hook followed by the
// SIGABRT handler, or a crash inside the dump) a no-op.  Everything
// clever — seqlock validation, varint decoding, checksums, rendering —
// happens offline in obs/postmortem.hpp and tools/hotc_postmortem,
// which is exactly why the dump is raw memory images and not a format.
//
// The attach_*() calls and hook installation happen once, at startup,
// before any traffic: the region table is written single-threaded and
// only read afterwards.  Mirror updates (note_tick, update_*_mirror) may
// race a crash on another thread; the decoder treats mirrors as
// best-effort and the ring regions remain seqlock-validated.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/prof.hpp"
#include "obs/seq_ring.hpp"
#include "obs/slo.hpp"
#include "obs/tsdb.hpp"

namespace hotc::obs {

// ---------------------------------------------------------------------------
// On-disk dump format (shared with obs/postmortem.cpp).  All PODs,
// written verbatim with write(2); the decoder validates magics and the
// trailer byte count to reject truncated or corrupted dumps.
// ---------------------------------------------------------------------------

inline constexpr char kDumpMagic[8] = {'H', 'O', 'T', 'C', 'B', 'B', 'X', '1'};
inline constexpr char kRegionMagic[4] = {'R', 'G', 'N', '0'};
inline constexpr char kTrailerMagic[8] = {'H', 'O', 'T', 'C',
                                          'B', 'E', 'N', 'D'};
inline constexpr std::uint32_t kDumpVersion = 1;

/// Region kinds (RegionHeader::kind).
inline constexpr std::uint32_t kRegionFlightRing = 1;
inline constexpr std::uint32_t kRegionJournalRing = 2;
inline constexpr std::uint32_t kRegionTsdbRing = 3;
inline constexpr std::uint32_t kRegionTsdbFrames = 4;
inline constexpr std::uint32_t kRegionTsdbSeries = 5;
inline constexpr std::uint32_t kRegionTsdbNames = 6;
inline constexpr std::uint32_t kRegionTsdbMeta = 7;
inline constexpr std::uint32_t kRegionProfMirror = 8;
inline constexpr std::uint32_t kRegionSloMirror = 9;

struct DumpHeader {
  char magic[8];  // kDumpMagic
  std::uint32_t version = kDumpVersion;
  std::uint32_t region_count = 0;
  std::uint64_t pid = 0;
  std::uint64_t realtime_ns = 0;   // CLOCK_REALTIME at the dump
  std::uint64_t monotonic_ns = 0;  // CLOCK_MONOTONIC at the dump
  std::int32_t signal = 0;         // fatal signal number; 0 = abort path
  std::uint32_t reserved = 0;
  std::uint64_t tick = 0;          // last adaptive tick note_tick() saw
  char reason[128];                // "component: detail", NUL-terminated
};

struct RegionHeader {
  char magic[4];  // kRegionMagic
  std::uint32_t kind = 0;
  char name[24];  // NUL-terminated label for the human timeline
  std::uint64_t bytes = 0;
  /// Region-specific geometry, carried verbatim from the source:
  /// rings: {capacity, shift, words, stride}; tables: {entries, stride}.
  std::uint64_t params[4] = {0, 0, 0, 0};
};

struct DumpTrailer {
  char magic[8];  // kTrailerMagic
  std::uint64_t region_count = 0;
  std::uint64_t total_bytes = 0;  // whole file, header through trailer
};

// ---------------------------------------------------------------------------
// Tick-refreshed POD mirrors.  The rings carry the high-resolution
// history; these carry the handful of derived values (burn rates, firing
// flags, contention top-list) that would otherwise need re-deriving
// offline from state the dump doesn't have.
// ---------------------------------------------------------------------------

struct ProfMirror {
  std::uint64_t seqlock_retries = 0;
  std::uint64_t untracked_waits = 0;
  std::uint64_t sampler_polls = 0;
  std::uint64_t contention_count = 0;  // valid entries below
  std::uint64_t task_count = 0;
  struct Contention {
    char site[24];
    std::uint64_t band = 0;
    std::uint64_t count = 0;
    std::uint64_t wait_ns = 0;
  } contention[16];
  struct Task {
    char tag[24];
    std::uint64_t count = 0;
    std::uint64_t queue_ns = 0;
    std::uint64_t run_ns = 0;
  } tasks[16];
};

struct SloMirror {
  std::uint64_t alerts_fired = 0;
  std::uint64_t series_count = 0;  // valid entries below
  struct Series {
    char slo[24];
    char labels[40];
    double value = 0.0;
    double fast_burn = 0.0;
    double slow_burn = 0.0;
    std::uint32_t firing = 0;
    std::uint32_t reserved = 0;
  } series[32];
};

// ---------------------------------------------------------------------------

class BlackBox {
 public:
  static constexpr std::size_t kMaxRegions = 24;

  /// Opens (creates/truncates) the dump file.  ok() reports whether the
  /// fd is usable; a BlackBox with a bad fd degrades to a no-op.
  explicit BlackBox(const std::string& path);
  ~BlackBox();

  BlackBox(const BlackBox&) = delete;
  BlackBox& operator=(const BlackBox&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  // --- startup wiring (single-threaded, before traffic) --------------------
  /// A SeqRing's slots (obs/seq_ring.hpp): the flight recorder as
  /// kRegionFlightRing, the decision journal as kRegionJournalRing.
  void attach_ring(std::uint32_t kind, const char* name, const RawRing& ring);
  void attach_tsdb(const TimeSeriesStore& tsdb);
  /// Generic escape hatch for additional stable buffers.
  void attach_region(std::uint32_t kind, const char* name, const void* data,
                     std::size_t bytes, const std::uint64_t params[4]);
  /// Install sigaction handlers for the fatal-signal set.  The previous
  /// disposition is not chained: the handler dumps, restores SIG_DFL and
  /// re-raises.
  void install_signal_handlers();
  /// Route core/crash_hook.hpp pre-abort notifications (ledger auditor,
  /// rank violations, journal audit) into dump_now().
  void install_abort_hook();

  // --- per-tick refresh (normal context, may race a crash) ------------------
  void note_tick(std::uint64_t tick) {
    tick_.store(tick, std::memory_order_relaxed);
  }
  void update_prof_mirror(const ProfSnapshot& snap);
  void update_slo_mirror(const std::vector<SloStatus>& status,
                         std::uint64_t alerts_fired);

  // --- the dump path --------------------------------------------------------
  /// Write header + every region + trailer, fsync, and print a one-line
  /// notice to stderr.  Async-signal-safe; one-shot (the first caller
  /// wins, later calls return false).  `sig` is 0 on the abort path.
  // hotc-analyze: signal-root
  bool dump_now(int sig, const char* component, const char* detail);

  [[nodiscard]] bool dumped() const {
    return dumped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const char* path() const { return path_; }

 private:
  struct Region {
    std::uint32_t kind = 0;
    char name[24];
    const void* data = nullptr;
    std::uint64_t bytes = 0;
    std::uint64_t params[4] = {0, 0, 0, 0};
  };

  /// ftruncate the file to the projected dump size (header + regions +
  /// trailer) so the blocks exist before the crash.
  void presize();

  int fd_ = -1;
  char path_[256];
  Region regions_[kMaxRegions];
  std::uint32_t region_count_ = 0;
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<bool> dumped_{false};
  bool signals_installed_ = false;
  bool abort_hook_installed_ = false;

  // Tick-refreshed mirrors, registered as regions at construction.
  ProfMirror prof_mirror_{};
  SloMirror slo_mirror_{};
};

}  // namespace hotc::obs
