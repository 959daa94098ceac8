#include "obs/blackbox.hpp"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/crash_hook.hpp"

namespace hotc::obs {

namespace {

// The one live BlackBox the signal handlers and the pre-abort hook reach.
// Plain atomic pointer: installed at startup, cleared in the destructor.
std::atomic<BlackBox*> g_instance{nullptr};

// ---------------------------------------------------------------------------
// Async-signal-safe helpers.  All bb_-prefixed to keep their names out of
// any other call graph the analyzer walks; none of them may allocate,
// lock, or call non-signal-safe libc.
// ---------------------------------------------------------------------------

/// write(2) a whole buffer, retrying short writes and EINTR.
bool bb_write_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Bounded byte copy with NUL termination (strncpy without the
/// pad-to-size surprise; safe on any string).
void bb_copy_str(char* dst, std::size_t cap, const char* src) {
  std::size_t i = 0;
  if (src != nullptr) {
    for (; i + 1 < cap && src[i] != '\0'; ++i) dst[i] = src[i];
  }
  if (cap > 0) dst[i] = '\0';
}

/// Append src to dst[pos..cap), returning the new position.
std::size_t bb_append_str(char* dst, std::size_t cap, std::size_t pos,
                          const char* src) {
  if (src == nullptr) return pos;
  for (std::size_t i = 0; src[i] != '\0' && pos + 1 < cap; ++i) {
    dst[pos++] = src[i];
  }
  dst[pos] = '\0';
  return pos;
}

/// Manual unsigned decimal formatting (no snprintf in the dump path —
/// glibc's is not on the async-signal-safe list).
std::size_t bb_format_u64(std::uint64_t v, char* out, std::size_t cap) {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0 && n < sizeof(tmp));
  std::size_t w = 0;
  while (n > 0 && w + 1 < cap) out[w++] = tmp[--n];
  if (cap > 0) out[w] = '\0';
  return w;
}

std::uint64_t bb_clock_ns(clockid_t clock) {
  struct timespec ts;
  if (::clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The fatal-signal entry point: dump once, then die by the default
/// disposition so the wait status still reports the signal.
// hotc-analyze: signal-root
void bb_on_signal(int sig) {
  BlackBox* bb = g_instance.load(std::memory_order_acquire);
  if (bb != nullptr) bb->dump_now(sig, "signal", nullptr);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

/// The core/crash_hook.hpp pre-abort entry point (ledger auditor, rank
/// violations, journal audit): dump before std::abort() tears down.
// hotc-analyze: signal-root
void bb_pre_abort(const char* component, const char* detail) {
  BlackBox* bb = g_instance.load(std::memory_order_acquire);
  if (bb != nullptr) bb->dump_now(0, component, detail);
}

const char* bb_signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    default: return "signal";
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// construction / wiring
// ---------------------------------------------------------------------------

BlackBox::BlackBox(const std::string& path) {
  bb_copy_str(path_, sizeof(path_), path.c_str());
  fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  // The mirrors are regions from birth: even a BlackBox with nothing
  // attached dumps the last tick's SLO and profiler state.
  const std::uint64_t prof_params[4] = {sizeof(ProfMirror), 0, 0, 0};
  attach_region(kRegionProfMirror, "prof_mirror", &prof_mirror_,
                sizeof(ProfMirror), prof_params);
  const std::uint64_t slo_params[4] = {sizeof(SloMirror), 0, 0, 0};
  attach_region(kRegionSloMirror, "slo_mirror", &slo_mirror_,
                sizeof(SloMirror), slo_params);
  BlackBox* expected = nullptr;
  g_instance.compare_exchange_strong(expected, this,
                                     std::memory_order_release,
                                     std::memory_order_relaxed);
}

BlackBox::~BlackBox() {
  BlackBox* expected = this;
  g_instance.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_release,
                                     std::memory_order_relaxed);
  if (abort_hook_installed_) crash::uninstall_pre_abort();
  if (signals_installed_) {
    for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
      ::signal(sig, SIG_DFL);
    }
  }
  if (fd_ >= 0) ::close(fd_);
}

void BlackBox::attach_region(std::uint32_t kind, const char* name,
                             const void* data, std::size_t bytes,
                             const std::uint64_t params[4]) {
  if (region_count_ >= kMaxRegions || data == nullptr || bytes == 0) return;
  Region& r = regions_[region_count_++];
  r.kind = kind;
  bb_copy_str(r.name, sizeof(r.name), name);
  r.data = data;
  r.bytes = bytes;
  for (int i = 0; i < 4; ++i) r.params[i] = params != nullptr ? params[i] : 0;
  presize();
}

void BlackBox::attach_ring(std::uint32_t kind, const char* name,
                           const RawRing& ring) {
  attach_region(kind, name, ring.data, ring.bytes, ring.params);
}

void BlackBox::attach_tsdb(const TimeSeriesStore& tsdb) {
  const struct {
    std::uint32_t kind;
    const char* name;
    TimeSeriesStore::RawRegion region;
  } parts[] = {
      {kRegionTsdbRing, "tsdb_ring", tsdb.ring_region()},
      {kRegionTsdbFrames, "tsdb_frames", tsdb.frame_region()},
      {kRegionTsdbSeries, "tsdb_series", tsdb.series_region()},
      {kRegionTsdbNames, "tsdb_names", tsdb.name_region()},
      {kRegionTsdbMeta, "tsdb_meta", tsdb.meta_region()},
  };
  for (const auto& p : parts) {
    attach_region(p.kind, p.name, p.region.data, p.region.bytes,
                  p.region.params);
  }
}

void BlackBox::presize() {
  if (fd_ < 0) return;
  std::uint64_t total = sizeof(DumpHeader) + sizeof(DumpTrailer);
  for (std::uint32_t i = 0; i < region_count_; ++i) {
    total += sizeof(RegionHeader) + regions_[i].bytes;
  }
  // Best effort: pre-existing blocks make the crash-time writes less
  // likely to meet ENOSPC.  Failure degrades to a plain write-at-crash.
  (void)::ftruncate(fd_, static_cast<off_t>(total));
}

void BlackBox::install_signal_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &bb_on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    ::sigaction(sig, &sa, nullptr);
  }
  signals_installed_ = true;
}

void BlackBox::install_abort_hook() {
  crash::install_pre_abort(&bb_pre_abort);
  abort_hook_installed_ = true;
}

// ---------------------------------------------------------------------------
// per-tick mirror refresh (normal context)
// ---------------------------------------------------------------------------

void BlackBox::update_prof_mirror(const ProfSnapshot& snap) {
  ProfMirror& m = prof_mirror_;
  m.seqlock_retries = snap.seqlock_retries;
  m.untracked_waits = snap.untracked_waits;
  m.sampler_polls = snap.sampler_polls;
  const std::size_t nc =
      std::min<std::size_t>(snap.contention.size(),
                            std::size(m.contention));
  for (std::size_t i = 0; i < nc; ++i) {
    bb_copy_str(m.contention[i].site, sizeof(m.contention[i].site),
                snap.contention[i].site);
    m.contention[i].band = snap.contention[i].band;
    m.contention[i].count = snap.contention[i].count;
    m.contention[i].wait_ns = snap.contention[i].wait_ns;
  }
  m.contention_count = nc;
  const std::size_t nt =
      std::min<std::size_t>(snap.tasks.size(), std::size(m.tasks));
  for (std::size_t i = 0; i < nt; ++i) {
    bb_copy_str(m.tasks[i].tag, sizeof(m.tasks[i].tag), snap.tasks[i].tag);
    m.tasks[i].count = snap.tasks[i].count;
    m.tasks[i].queue_ns = snap.tasks[i].queue_ns;
    m.tasks[i].run_ns = snap.tasks[i].run_ns;
  }
  m.task_count = nt;
}

void BlackBox::update_slo_mirror(const std::vector<SloStatus>& status,
                                 std::uint64_t alerts_fired) {
  SloMirror& m = slo_mirror_;
  m.alerts_fired = alerts_fired;
  const std::size_t n =
      std::min<std::size_t>(status.size(), std::size(m.series));
  for (std::size_t i = 0; i < n; ++i) {
    bb_copy_str(m.series[i].slo, sizeof(m.series[i].slo),
                status[i].slo.c_str());
    bb_copy_str(m.series[i].labels, sizeof(m.series[i].labels),
                status[i].labels.c_str());
    m.series[i].value = status[i].value;
    m.series[i].fast_burn = status[i].fast_burn;
    m.series[i].slow_burn = status[i].slow_burn;
    m.series[i].firing = status[i].firing ? 1 : 0;
  }
  m.series_count = n;
}

// ---------------------------------------------------------------------------
// the dump path (async-signal-safe from here down)
// ---------------------------------------------------------------------------

bool BlackBox::dump_now(int sig, const char* component, const char* detail) {
  if (fd_ < 0) return false;
  bool expected = false;
  if (!dumped_.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel)) {
    return false;  // one-shot: the abort hook already dumped, etc.
  }
  if (::lseek(fd_, 0, SEEK_SET) < 0) return false;

  DumpHeader hdr;
  std::memcpy(hdr.magic, kDumpMagic, sizeof(hdr.magic));
  hdr.version = kDumpVersion;
  hdr.region_count = region_count_;
  hdr.pid = static_cast<std::uint64_t>(::getpid());
  hdr.realtime_ns = bb_clock_ns(CLOCK_REALTIME);
  hdr.monotonic_ns = bb_clock_ns(CLOCK_MONOTONIC);
  hdr.signal = sig;
  hdr.tick = tick_.load(std::memory_order_relaxed);
  std::size_t pos = 0;
  hdr.reason[0] = '\0';
  pos = bb_append_str(hdr.reason, sizeof(hdr.reason), pos,
                      component != nullptr ? component : "unknown");
  if (sig != 0) {
    pos = bb_append_str(hdr.reason, sizeof(hdr.reason), pos, ": ");
    pos = bb_append_str(hdr.reason, sizeof(hdr.reason), pos,
                        bb_signal_name(sig));
  }
  if (detail != nullptr) {
    pos = bb_append_str(hdr.reason, sizeof(hdr.reason), pos, ": ");
    pos = bb_append_str(hdr.reason, sizeof(hdr.reason), pos, detail);
  }

  std::uint64_t total = sizeof(DumpHeader);
  if (!bb_write_all(fd_, &hdr, sizeof(hdr))) return false;
  for (std::uint32_t i = 0; i < region_count_; ++i) {
    const Region& r = regions_[i];
    RegionHeader rh;
    std::memcpy(rh.magic, kRegionMagic, sizeof(rh.magic));
    rh.kind = r.kind;
    bb_copy_str(rh.name, sizeof(rh.name), r.name);
    rh.bytes = r.bytes;
    for (int p = 0; p < 4; ++p) rh.params[p] = r.params[p];
    if (!bb_write_all(fd_, &rh, sizeof(rh))) return false;
    if (!bb_write_all(fd_, r.data, r.bytes)) return false;
    total += sizeof(RegionHeader) + r.bytes;
  }
  DumpTrailer tr;
  std::memcpy(tr.magic, kTrailerMagic, sizeof(tr.magic));
  tr.region_count = region_count_;
  tr.total_bytes = total + sizeof(DumpTrailer);
  if (!bb_write_all(fd_, &tr, sizeof(tr))) return false;
  // The pre-size may exceed the written size only if regions were
  // detached; sizes only grow here, but keep the file exact anyway.
  (void)::ftruncate(fd_, static_cast<off_t>(tr.total_bytes));
  (void)::fsync(fd_);

  // One-line stderr notice, write(2) only.
  char num[24];
  bb_format_u64(tr.total_bytes, num, sizeof(num));
  bb_write_all(2, "hotc blackbox: wrote ", 21);
  bb_write_all(2, num, std::strlen(num));
  bb_write_all(2, " bytes to ", 10);
  bb_write_all(2, path_, std::strlen(path_));
  bb_write_all(2, " (", 2);
  bb_write_all(2, hdr.reason, std::strlen(hdr.reason));
  bb_write_all(2, ")\n", 2);
  return true;
}

}  // namespace hotc::obs
