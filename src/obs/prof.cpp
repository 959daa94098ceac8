#include "obs/prof.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>
#include <type_traits>
#include <unordered_map>

#include "core/prof_hook.hpp"

namespace hotc::obs {

namespace {

// ---- collector state ------------------------------------------------
//
// Everything a hook may touch lives here, in trivially-destructible
// function-local static storage: no atexit destructor is ever
// registered, so a hook that fires during static teardown (a global
// object contending a log-sink mutex, say) still lands in valid memory.
// Threads claim a ThreadRec with one CAS — no ranked mutex anywhere in
// the hook path, because a hook can fire while the calling thread holds
// locks at *any* rank and even a leaf-rank mutex here could invert.

constexpr std::size_t kMaxThreads = 128;
constexpr std::size_t kContentionCells = 64;  // power of two
constexpr std::size_t kTaskCells = 16;

// (site, band, stage) bucket.  Only the owning thread writes; the
// publication protocol is meta-then-counters-then-site-release, so a
// merger that acquires a non-null site sees a fully keyed cell (the
// counters may lag — they are monotone, staleness is the only cost).
struct ContentionCell {
  std::atomic<const char*> site{nullptr};
  std::atomic<std::uint32_t> meta{0};  // band << 8 | stage
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> wait_ns{0};
};

struct TaskCell {
  std::atomic<const char*> tag{nullptr};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> queue_ns{0};
  std::atomic<std::uint64_t> run_ns{0};
  std::atomic<std::uint64_t> queue_max_ns{0};
  std::atomic<std::uint64_t> run_max_ns{0};
};

struct ThreadRec {
  std::atomic<bool> claimed{false};  // CAS-claimed by one live thread
  std::atomic<bool> used{false};     // ever claimed: merge scans these
  // Sampler-visible stage slot, published under a per-thread sequence
  // word (odd = update in progress) exactly like core SeqLock, but
  // open-coded: the writer is the owning thread, the reader the
  // sampler, and a torn read is just a skipped sample.
  std::atomic<std::uint32_t> stage_seq{0};
  std::atomic<std::uint8_t> stage{kStageIdle};
  std::atomic<std::uint64_t> trace{0};
  std::array<ContentionCell, kContentionCells> contention{};
  std::array<TaskCell, kTaskCells> tasks{};
  std::atomic<std::uint64_t> seqlock_retries{0};
  std::atomic<std::uint64_t> untracked_waits{0};
  std::atomic<std::uint64_t> untracked_wait_ns{0};
};

struct ProfState {
  std::array<ThreadRec, kMaxThreads> threads{};
  std::array<std::atomic<std::uint64_t>, kStageCount + 1> stage_samples{};
  std::atomic<std::uint64_t> sampler_polls{0};
  std::atomic<std::uint64_t> lost_threads{0};
  std::atomic<bool> enabled{false};  // collectors live (hooks, StageScope)
  std::atomic<bool> active{false};   // one-profiler-at-a-time latch
};

static_assert(std::is_trivially_destructible_v<ProfState>,
              "hook-reachable state must never run a destructor");

ProfState& state() {
  static ProfState s;
  return s;
}

// Releases the slot at thread exit so a long-lived process with worker
// churn reuses the 128 slots instead of exhausting them.  The rec's
// counters survive release (merged by future snapshots); a new owner
// simply keeps accumulating into the same global totals.
struct ThreadSlot {
  ThreadRec* rec = nullptr;
  ~ThreadSlot() {
    if (rec != nullptr) {
      rec->claimed.store(false, std::memory_order_release);
    }
  }
};

thread_local ThreadSlot t_slot;
// Plain thread_locals for same-thread stage attribution: only this
// thread reads them (the contention hook), so no atomics needed.
thread_local std::uint8_t t_stage = kStageIdle;
thread_local std::uint64_t t_trace = 0;

ThreadRec* my_rec() {
  if (t_slot.rec != nullptr) return t_slot.rec;
  ProfState& st = state();
  for (ThreadRec& rec : st.threads) {
    bool expected = false;
    if (rec.claimed.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
      rec.used.store(true, std::memory_order_release);
      t_slot.rec = &rec;
      return &rec;
    }
  }
  st.lost_threads.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

std::size_t cell_hash(const char* site, std::uint32_t meta) {
  std::uintptr_t x = reinterpret_cast<std::uintptr_t>(site);
  x ^= static_cast<std::uintptr_t>(meta) << 17;
  x *= 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(x >> 32);
}

void publish_stage(ThreadRec& rec, std::uint8_t stage,
                   std::uint64_t trace) {
  const std::uint32_t seq =
      rec.stage_seq.load(std::memory_order_relaxed);
  rec.stage_seq.store(seq + 1, std::memory_order_release);  // odd
  rec.stage.store(stage, std::memory_order_release);
  rec.trace.store(trace, std::memory_order_release);
  rec.stage_seq.store(seq + 2, std::memory_order_release);  // even
}

const char* stage_frame_name(int idx) {
  if (idx == kStageIdle) return "idle";
  return to_string(static_cast<Stage>(idx));
}

}  // namespace

// ---- hook entry points ---------------------------------------------

void Profiler::on_lock_wait(std::uint32_t band, const char* site,
                            std::uint64_t wait_ns) {
  ProfState& st = state();
  if (!st.enabled.load(std::memory_order_relaxed)) return;
  ThreadRec* rec = my_rec();
  if (rec == nullptr) return;  // all slots busy: counted in lost_threads
  const std::uint32_t meta = (band << 8) | t_stage;
  const std::size_t start = cell_hash(site, meta);
  for (std::size_t i = 0; i < kContentionCells; ++i) {
    ContentionCell& cell =
        rec->contention[(start + i) & (kContentionCells - 1)];
    const char* cur = cell.site.load(std::memory_order_acquire);
    if (cur == nullptr) {
      // Claim: this thread owns the table, so plain-order key/counter
      // stores followed by the site release-store publish atomically
      // enough for the merger (see ContentionCell comment).
      cell.meta.store(meta, std::memory_order_relaxed);
      cell.count.store(1, std::memory_order_relaxed);
      cell.wait_ns.store(wait_ns, std::memory_order_relaxed);
      cell.site.store(site, std::memory_order_release);
      return;
    }
    if (cur == site &&
        cell.meta.load(std::memory_order_relaxed) == meta) {
      cell.count.fetch_add(1, std::memory_order_relaxed);
      cell.wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);
      return;
    }
  }
  // Table full: never silently lost — the snapshot reports the residue.
  rec->untracked_waits.fetch_add(1, std::memory_order_relaxed);
  rec->untracked_wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);
}

void Profiler::on_seqlock_retry(std::uint32_t retries) {
  ProfState& st = state();
  if (!st.enabled.load(std::memory_order_relaxed)) return;
  ThreadRec* rec = my_rec();
  if (rec == nullptr) return;
  rec->seqlock_retries.fetch_add(retries, std::memory_order_relaxed);
}

void Profiler::on_task(const char* tag, std::uint64_t queue_ns,
                       std::uint64_t run_ns) {
  ProfState& st = state();
  if (!st.enabled.load(std::memory_order_relaxed)) return;
  ThreadRec* rec = my_rec();
  if (rec == nullptr) return;
  for (TaskCell& cell : rec->tasks) {
    const char* cur = cell.tag.load(std::memory_order_acquire);
    if (cur == nullptr) {
      cell.count.store(1, std::memory_order_relaxed);
      cell.queue_ns.store(queue_ns, std::memory_order_relaxed);
      cell.run_ns.store(run_ns, std::memory_order_relaxed);
      cell.queue_max_ns.store(queue_ns, std::memory_order_relaxed);
      cell.run_max_ns.store(run_ns, std::memory_order_relaxed);
      cell.tag.store(tag, std::memory_order_release);
      return;
    }
    if (cur == tag) {
      cell.count.fetch_add(1, std::memory_order_relaxed);
      cell.queue_ns.fetch_add(queue_ns, std::memory_order_relaxed);
      cell.run_ns.fetch_add(run_ns, std::memory_order_relaxed);
      // Owner-exclusive max: plain load-compare-store, no CAS loop.
      if (queue_ns > cell.queue_max_ns.load(std::memory_order_relaxed)) {
        cell.queue_max_ns.store(queue_ns, std::memory_order_relaxed);
      }
      if (run_ns > cell.run_max_ns.load(std::memory_order_relaxed)) {
        cell.run_max_ns.store(run_ns, std::memory_order_relaxed);
      }
      return;
    }
  }
  // More distinct tags than cells: fold into the overflow residue.
  rec->untracked_waits.fetch_add(1, std::memory_order_relaxed);
}

// ---- StageScope -----------------------------------------------------

StageScope::StageScope(Stage stage, std::uint64_t trace_id)
    : prev_stage_(t_stage), prev_trace_(t_trace) {
  t_stage = static_cast<std::uint8_t>(stage);
  t_trace = trace_id;
  if (state().enabled.load(std::memory_order_relaxed)) {
    if (ThreadRec* rec = my_rec()) {
      publish_stage(*rec, t_stage, t_trace);
    }
  }
}

StageScope::~StageScope() {
  t_stage = prev_stage_;
  t_trace = prev_trace_;
  if (state().enabled.load(std::memory_order_relaxed)) {
    if (ThreadRec* rec = t_slot.rec) {
      publish_stage(*rec, t_stage, t_trace);
    }
  }
}

// ---- Profiler lifecycle --------------------------------------------

Profiler::Profiler(ProfOptions options) : options_(options) {}

Profiler::~Profiler() { stop(); }

bool Profiler::start() {
  ProfState& st = state();
  bool expected = false;
  if (!st.active.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return false;
  }
  st.enabled.store(true, std::memory_order_release);
  // The table must have static storage duration: a slow path that read
  // the pointer just before a future uninstall still calls valid code.
  static const prof::Hooks kHooks{&Profiler::on_lock_wait,
                                  &Profiler::on_seqlock_retry,
                                  &Profiler::on_task};
  prof::install_hooks(&kHooks);
  if (options_.sampler) {
    stop_requested_ = false;
    sampler_ = std::thread([this]() { sampler_loop(); });
  }
  running_ = true;
  return true;
}

void Profiler::stop() {
  if (!running_) return;
  prof::uninstall_hooks();
  ProfState& st = state();
  st.enabled.store(false, std::memory_order_release);
  if (sampler_.joinable()) {
    stop_requested_ = true;
    sampler_.join();
  }
  st.active.store(false, std::memory_order_release);
  running_ = false;
}

void Profiler::sampler_loop() {
  ProfState& st = state();
  while (!stop_requested_) {
    std::this_thread::sleep_for(options_.sampler_period);
    st.sampler_polls.fetch_add(1, std::memory_order_relaxed);
    for (ThreadRec& rec : st.threads) {
      if (!rec.claimed.load(std::memory_order_acquire)) continue;
      // Bounded optimistic read of the thread's stage slot: give up
      // after a few torn attempts (skip the sample) rather than spin
      // against a thread that is mid-publish every time we look.
      for (int attempt = 0; attempt < 4; ++attempt) {
        const std::uint32_t s1 =
            rec.stage_seq.load(std::memory_order_acquire);
        if ((s1 & 1u) != 0u) continue;
        const std::uint8_t stage = rec.stage.load(std::memory_order_acquire);
        if (rec.stage_seq.load(std::memory_order_acquire) != s1) continue;
        const int idx = stage <= kStageIdle ? stage : kStageIdle;
        st.stage_samples[static_cast<std::size_t>(idx)].fetch_add(
            1, std::memory_order_relaxed);
        break;
      }
    }
  }
}

// ---- snapshot / reset ----------------------------------------------

void Profiler::reset() {
  ProfState& st = state();
  for (ThreadRec& rec : st.threads) {
    if (!rec.used.load(std::memory_order_acquire)) continue;
    for (ContentionCell& cell : rec.contention) {
      // Site first: a concurrent merger skips the cell while its
      // counters are being cleared.  (Reset is documented quiescent-
      // only with respect to *writers*.)
      cell.site.store(nullptr, std::memory_order_release);
      cell.meta.store(0, std::memory_order_relaxed);
      cell.count.store(0, std::memory_order_relaxed);
      cell.wait_ns.store(0, std::memory_order_relaxed);
    }
    for (TaskCell& cell : rec.tasks) {
      cell.tag.store(nullptr, std::memory_order_release);
      cell.count.store(0, std::memory_order_relaxed);
      cell.queue_ns.store(0, std::memory_order_relaxed);
      cell.run_ns.store(0, std::memory_order_relaxed);
      cell.queue_max_ns.store(0, std::memory_order_relaxed);
      cell.run_max_ns.store(0, std::memory_order_relaxed);
    }
    rec.seqlock_retries.store(0, std::memory_order_relaxed);
    rec.untracked_waits.store(0, std::memory_order_relaxed);
    rec.untracked_wait_ns.store(0, std::memory_order_relaxed);
  }
  for (auto& samples : st.stage_samples) {
    samples.store(0, std::memory_order_relaxed);
  }
  st.sampler_polls.store(0, std::memory_order_relaxed);
  st.lost_threads.store(0, std::memory_order_relaxed);
}

ProfSnapshot Profiler::snapshot() const {
  ProfState& st = state();
  ProfSnapshot snap;
  snap.sampler_period = options_.sampler_period;
  std::map<std::tuple<const void*, std::uint32_t, std::uint8_t>,
           std::pair<std::uint64_t, std::uint64_t>>
      contention;  // (site, band, stage) -> (count, wait)
  std::map<const void*, TaskEntry> tasks;
  for (const ThreadRec& rec : st.threads) {
    if (!rec.used.load(std::memory_order_acquire)) continue;
    ++snap.threads_seen;
    for (const ContentionCell& cell : rec.contention) {
      const char* site = cell.site.load(std::memory_order_acquire);
      if (site == nullptr) continue;
      const std::uint32_t meta = cell.meta.load(std::memory_order_relaxed);
      auto& bucket = contention[{site, meta >> 8,
                                 static_cast<std::uint8_t>(meta & 0xff)}];
      bucket.first += cell.count.load(std::memory_order_relaxed);
      bucket.second += cell.wait_ns.load(std::memory_order_relaxed);
    }
    for (const TaskCell& cell : rec.tasks) {
      const char* tag = cell.tag.load(std::memory_order_acquire);
      if (tag == nullptr) continue;
      TaskEntry& entry = tasks[tag];
      entry.tag = tag;
      entry.count += cell.count.load(std::memory_order_relaxed);
      entry.queue_ns += cell.queue_ns.load(std::memory_order_relaxed);
      entry.run_ns += cell.run_ns.load(std::memory_order_relaxed);
      entry.queue_max_ns =
          std::max(entry.queue_max_ns,
                   cell.queue_max_ns.load(std::memory_order_relaxed));
      entry.run_max_ns = std::max(
          entry.run_max_ns, cell.run_max_ns.load(std::memory_order_relaxed));
    }
    snap.seqlock_retries +=
        rec.seqlock_retries.load(std::memory_order_relaxed);
    snap.untracked_waits +=
        rec.untracked_waits.load(std::memory_order_relaxed);
    snap.untracked_wait_ns +=
        rec.untracked_wait_ns.load(std::memory_order_relaxed);
  }
  for (const auto& [key, bucket] : contention) {
    ContentionEntry entry;
    entry.site = static_cast<const char*>(std::get<0>(key));
    entry.band = std::get<1>(key);
    entry.stage = std::get<2>(key);
    entry.count = bucket.first;
    entry.wait_ns = bucket.second;
    snap.contention.push_back(entry);
  }
  std::sort(snap.contention.begin(), snap.contention.end(),
            [](const ContentionEntry& a, const ContentionEntry& b) {
              return a.wait_ns > b.wait_ns;
            });
  for (const auto& [tag, entry] : tasks) {
    snap.tasks.push_back(entry);
  }
  std::sort(snap.tasks.begin(), snap.tasks.end(),
            [](const TaskEntry& a, const TaskEntry& b) {
              return a.queue_ns > b.queue_ns;
            });
  for (std::size_t s = 0; s < snap.stage_samples.size(); ++s) {
    snap.stage_samples[s] =
        st.stage_samples[s].load(std::memory_order_relaxed);
  }
  snap.sampler_polls = st.sampler_polls.load(std::memory_order_relaxed);
  snap.lost_threads = st.lost_threads.load(std::memory_order_relaxed);
  return snap;
}

std::uint64_t ProfSnapshot::total_wait_ns() const {
  std::uint64_t total = untracked_wait_ns;
  for (const ContentionEntry& entry : contention) total += entry.wait_ns;
  return total;
}

double ProfSnapshot::band_wait_share(std::uint32_t band) const {
  const std::uint64_t total = total_wait_ns();
  if (total == 0) return 0.0;
  std::uint64_t in_band = 0;
  for (const ContentionEntry& entry : contention) {
    if (entry.band == band) in_band += entry.wait_ns;
  }
  return static_cast<double>(in_band) / static_cast<double>(total);
}

// ---- renderers ------------------------------------------------------

std::string Profiler::to_folded(const ProfSnapshot& snap) {
  std::string out;
  char line[256];
  const auto us = [](std::uint64_t ns) {
    return ns == 0 ? std::uint64_t{0} : std::max<std::uint64_t>(1, ns / 1000);
  };
  // On-CPU estimate: samples × period, so the wait frames and sampler
  // frames share one unit (microseconds) and one flamegraph.
  const std::uint64_t period_us = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, snap.sampler_period.count()));
  for (std::size_t s = 0; s < snap.stage_samples.size(); ++s) {
    if (snap.stage_samples[s] == 0) continue;
    std::snprintf(line, sizeof(line), "%s;oncpu %llu\n",
                  stage_frame_name(static_cast<int>(s)),
                  static_cast<unsigned long long>(snap.stage_samples[s] *
                                                  period_us));
    out += line;
  }
  for (const ContentionEntry& entry : snap.contention) {
    if (entry.wait_ns == 0) continue;
    std::snprintf(line, sizeof(line), "%s;lock_wait;band_%u;%s %llu\n",
                  stage_frame_name(entry.stage), entry.band, entry.site,
                  static_cast<unsigned long long>(us(entry.wait_ns)));
    out += line;
  }
  for (const TaskEntry& entry : snap.tasks) {
    if (entry.queue_ns != 0) {
      std::snprintf(line, sizeof(line), "scheduler;queue_delay;%s %llu\n",
                    entry.tag,
                    static_cast<unsigned long long>(us(entry.queue_ns)));
      out += line;
    }
    if (entry.run_ns != 0) {
      std::snprintf(line, sizeof(line), "scheduler;run;%s %llu\n",
                    entry.tag,
                    static_cast<unsigned long long>(us(entry.run_ns)));
      out += line;
    }
  }
  if (snap.untracked_wait_ns != 0) {
    std::snprintf(line, sizeof(line), "untracked;lock_wait %llu\n",
                  static_cast<unsigned long long>(
                      us(snap.untracked_wait_ns)));
    out += line;
  }
  return out;
}

// ---- critical-path analysis ----------------------------------------

namespace {

// Request spans grouped per trace, ordered by (start, publication seq):
// the reconstruction every critical-path query starts from.
std::unordered_map<std::uint64_t, std::vector<SpanRecord>> group_traces(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<SpanRecord>> traces;
  for (const SpanRecord& span : spans) {
    if (span.trace_id == 0) continue;  // controller background work
    traces[span.trace_id].push_back(span);
  }
  for (auto& [id, timeline] : traces) {
    std::sort(timeline.begin(), timeline.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                return a.span_seq < b.span_seq;
              });
  }
  return traces;
}

}  // namespace

CriticalPathReport critical_path(const std::vector<SpanRecord>& spans,
                                 std::size_t top_k) {
  CriticalPathReport report;
  auto traces = group_traces(spans);
  report.traces = traces.size();
  std::array<StageCost, kStageCount> costs{};
  for (int s = 0; s < kStageCount; ++s) {
    costs[static_cast<std::size_t>(s)].stage = static_cast<Stage>(s);
  }
  std::uint64_t grand_total = 0;
  for (const auto& [id, timeline] : traces) {
    report.spans += timeline.size();
    for (const SpanRecord& span : timeline) {
      StageCost& cost = costs[static_cast<std::size_t>(span.stage)];
      const auto dur =
          static_cast<std::uint64_t>(std::max<std::int64_t>(0, span.dur_ns));
      ++cost.count;
      cost.total_ns += dur;
      grand_total += dur;
      if (dur >= cost.max_ns) {
        cost.max_ns = dur;
        cost.exemplar_trace = id;
      }
    }
    const std::int64_t elapsed = timeline.back().start_ns +
                                 timeline.back().dur_ns -
                                 timeline.front().start_ns;
    if (elapsed > report.slowest_ns) {
      report.slowest_ns = elapsed;
      report.slowest_trace = id;
    }
  }
  for (StageCost& cost : costs) {
    if (cost.count == 0) continue;
    if (grand_total > 0) {
      cost.share = static_cast<double>(cost.total_ns) /
                   static_cast<double>(grand_total);
    }
    report.stages.push_back(cost);
  }
  std::sort(report.stages.begin(), report.stages.end(),
            [](const StageCost& a, const StageCost& b) {
              return a.total_ns > b.total_ns;
            });
  if (report.stages.size() > top_k) report.stages.resize(top_k);
  return report;
}

double stage_order_fraction(const std::vector<SpanRecord>& spans,
                            const std::vector<Stage>& prefix) {
  const auto traces = group_traces(spans);
  std::size_t eligible = 0;
  std::size_t matching = 0;
  for (const auto& [id, timeline] : traces) {
    if (timeline.size() < prefix.size()) continue;
    ++eligible;
    bool match = true;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      if (timeline[i].stage != prefix[i]) {
        match = false;
        break;
      }
    }
    if (match) ++matching;
  }
  if (eligible == 0) return 0.0;
  return static_cast<double>(matching) / static_cast<double>(eligible);
}

std::string render_critical_path(const CriticalPathReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "critical path: %zu traces, %zu spans\n", report.traces,
                report.spans);
  out += line;
  std::snprintf(
      line, sizeof(line), "slowest trace: id=%llu  %.3f ms end-to-end\n",
      static_cast<unsigned long long>(report.slowest_trace),
      static_cast<double>(report.slowest_ns) / 1e6);
  out += line;
  out += "  stage           share   total(ms)     max(ms)  count"
         "  exemplar\n";
  for (const StageCost& cost : report.stages) {
    std::snprintf(line, sizeof(line),
                  "  %-14s %5.1f%%  %10.3f  %10.3f  %5llu  %llu\n",
                  to_string(cost.stage), cost.share * 100.0,
                  static_cast<double>(cost.total_ns) / 1e6,
                  static_cast<double>(cost.max_ns) / 1e6,
                  static_cast<unsigned long long>(cost.count),
                  static_cast<unsigned long long>(cost.exemplar_trace));
    out += line;
  }
  return out;
}

}  // namespace hotc::obs
