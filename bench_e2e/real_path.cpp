// hit_path and miss_path: closed-loop clients driving runtime::RealHotC.
//
// Every request is timed from the start of submit() to the return of
// get().  In a traced run the benchmark also stamps submit()'s return and
// its own handler's entry and exit, which cut each request into four
// spans that tile its latency exactly:
//
//   submit    t0 -> t1  the RealHotC::submit call (key, closure, post)
//   dispatch  t1 -> t2  queue, wake, pool lookup, cost model, miss path
//   exec      t2 -> t3  the benchmark's handler body
//   complete  t3 -> t4  readmit, trim/demote, promise, caller wake
//
// A worker may enter the handler before submit() has returned to the
// client; the boundaries are then clamped into order (t1 := t2), charging
// the overlap to submit, and the request is counted as overlapped.
#include <algorithm>
#include <fstream>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <optional>
#include <thread>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "e2e.hpp"
#include "obs/prof.hpp"
#include "pool/pool.hpp"
#include "runtime/real_hotc.hpp"
#include "workload/mix.hpp"

namespace e2e {
namespace {

using hotc::runtime::RealHotC;
using hotc::runtime::RealOptions;
using hotc::runtime::RealOutcome;

enum Outcome : std::size_t { kHit, kDonor, kRestore, kCold, kOutcomes };
constexpr const char* kOutcomeNames[kOutcomes] = {"hit", "donor", "restore",
                                                  "cold"};

constexpr std::size_t kStreamLength = 1 << 16;
constexpr std::size_t kArguments = 4096;
constexpr std::size_t kLatencySamples = 1 << 20;
constexpr std::size_t kSpanSamples = 1 << 16;
constexpr std::size_t kSpanRecordRequests = 4096;
constexpr std::uint64_t kSpanRecordStride = 64;
constexpr auto kResolveTimeout = std::chrono::seconds(60);

struct Request {
  std::uint32_t key = 0;
  std::uint32_t arg = 0;
};

/// Everything a run feeds the library, generated from the seed before any
/// timing starts.
struct Inputs {
  hotc::workload::ConfigMix mix;
  std::vector<std::string> args;
  std::vector<std::string> expected;          // checksum_hex(args[i])
  std::vector<std::vector<Request>> streams;  // one per client
};

std::string make_argument(hotc::Rng& rng) {
  static constexpr char kAlnum[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string s = "https://qr.example/u/";
  const auto len = rng.uniform_int(12, 40);
  for (std::int64_t i = 0; i < len; ++i) s += kAlnum[rng.index(36)];
  return s;
}

Inputs make_inputs(hotc::workload::ConfigMix mix, std::uint64_t seed,
                   std::size_t clients) {
  Inputs in;
  in.mix = std::move(mix);
  hotc::Rng arg_rng(mix_seed(seed, 1000));
  in.args.reserve(kArguments);
  in.expected.reserve(kArguments);
  for (std::size_t a = 0; a < kArguments; ++a) {
    in.args.push_back(make_argument(arg_rng));
    in.expected.push_back(checksum_hex(in.args.back()));
  }
  for (std::size_t c = 0; c < clients; ++c) {
    hotc::Rng rng(mix_seed(seed, c));
    std::vector<Request> stream(kStreamLength);
    for (Request& r : stream) {
      r.key = static_cast<std::uint32_t>(in.mix.sample(rng, 0.9));
      r.arg = static_cast<std::uint32_t>(rng.index(kArguments));
    }
    in.streams.push_back(std::move(stream));
  }
  return in;
}

/// Where the load threads run.  With four CPUs or more, client c has the
/// c-th CPU to itself and the library's workers share the next two.  Left
/// to the scheduler, the placement of a client and its worker moved
/// 1-worker throughput between 210k and 360k req/s from run to run on a
/// 4-vCPU VM.  With fewer CPUs nothing is pinned.
struct Placement {
  std::vector<int> all;
  std::vector<int> clients;
  std::vector<int> workers;
};

const Placement& placement() {
  static const Placement kPlacement = [] {
    Placement p;
    p.all = allowed_cpus();
    if (p.all.size() >= 4) {
      p.clients = {p.all[0], p.all[1]};
      p.workers = {p.all[2], p.all[3]};
    }
    return p;
  }();
  return kPlacement;
}

std::unique_ptr<RealHotC> make_hotc(const RealOptions& options) {
  pin_self(placement().workers);  // the pool's threads inherit this mask
  auto hotc = std::make_unique<RealHotC>(options);
  pin_self(placement().all);
  return hotc;
}

/// Written by the worker inside the handler, read by the client after
/// get() (the future's completion orders the two).
struct HandlerProbe {
  Clock::time_point entered{};
  Clock::time_point left{};
};

/// The benchmark's function body: the payload is a checksum of the
/// argument, which the client verifies.  Trivially copyable and two words
/// wide, so std::function stores it without allocating.
class ChecksumHandler {
 public:
  ChecksumHandler(HandlerProbe* probe, bool corrupt)
      : probe_(probe), corrupt_(corrupt) {}

  std::string operator()(const std::string& argument) const {
    if (probe_ != nullptr) probe_->entered = Clock::now();
    std::string payload = checksum_hex(argument);
    if (corrupt_) payload[0] = payload[0] == '0' ? '1' : '0';
    if (probe_ != nullptr) probe_->left = Clock::now();
    return payload;
  }

 private:
  HandlerProbe* probe_;
  bool corrupt_;
};

struct SpanRecord {
  const char* name = "";
  const char* outcome = "";
  std::uint64_t request = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct ClientTrace {
  Reservoir submit{kSpanSamples, 11};
  Reservoir dispatch[kOutcomes] = {
      Reservoir(kSpanSamples, 12), Reservoir(kSpanSamples, 13),
      Reservoir(kSpanSamples, 14), Reservoir(kSpanSamples, 15)};
  Reservoir exec{kSpanSamples, 16};
  Reservoir complete{kSpanSamples, 17};
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t overlapped = 0;
  std::vector<SpanRecord> records;

  ClientTrace() { records.reserve(kSpanRecordRequests * 5); }
};

struct ClientRun {
  std::uint64_t completed = 0;
  std::uint64_t wrong_payload = 0;
  std::uint64_t bad_outcome = 0;
  std::uint64_t outcomes[kOutcomes] = {};
  std::uint64_t next_offset = 0;
  Reservoir latency_ns{kLatencySamples, 3};
  std::unique_ptr<ClientTrace> trace;  // null when untraced
  std::string first_error;
};

struct LoopPlan {
  std::size_t stream = 0;
  std::uint64_t offset = 0;  // position in the stream to start from
  std::size_t window = 1;
  Clock::time_point deadline = Clock::time_point::max();
  std::uint64_t max_requests = ~0ull;
  std::uint64_t corrupt_every = 0;
  Clock::time_point origin{};  // zero of span timestamps
  std::uint64_t request_base = 0;
};

/// One closed-loop client: keeps `window` requests outstanding and submits
/// the next only after it has collected the oldest.
void run_client(RealHotC& hotc, const Inputs& in, const LoopPlan& plan,
                ClientRun& out) {
  struct Slot {
    std::future<RealOutcome> fut;
    Clock::time_point t0{};
    Clock::time_point t1{};
    std::uint32_t arg = 0;
    std::uint64_t seq = 0;
    HandlerProbe probe;
  };
  std::vector<Slot> ring(plan.window);
  const std::vector<Request>& stream = in.streams[plan.stream];
  std::uint64_t submitted = 0;
  std::uint64_t collected = 0;

  auto collect = [&](Slot& s) {
    if (s.fut.wait_for(kResolveTimeout) != std::future_status::ready) {
      fail_fast("a submitted request did not resolve within 60 s");
    }
    RealOutcome outcome;
    bool resolved = true;
    try {
      outcome = s.fut.get();
    } catch (const std::exception& e) {
      resolved = false;
      if (out.first_error.empty()) {
        out.first_error = std::string("future failed: ") + e.what();
      }
    }
    const auto t4 = Clock::now();
    ++out.completed;
    if (!resolved || outcome.payload != in.expected[s.arg]) {
      ++out.wrong_payload;
      if (out.first_error.empty()) {
        out.first_error = "payload '" + outcome.payload + "' != expected '" +
                          in.expected[s.arg] + "'";
      }
    }
    const int flags = static_cast<int>(outcome.reused) +
                      static_cast<int>(outcome.respecialized) +
                      static_cast<int>(outcome.restored);
    if (flags > 1) ++out.bad_outcome;
    const Outcome cls = outcome.reused          ? kHit
                        : outcome.respecialized ? kDonor
                        : outcome.restored      ? kRestore
                                                : kCold;
    ++out.outcomes[cls];
    const std::int64_t latency = ns_since(s.t0, t4);
    out.latency_ns.add(static_cast<double>(latency));
    if (!out.trace) return;

    ClientTrace& tr = *out.trace;
    const auto b0 = s.t0;
    const auto b4 = t4;
    const auto b2 = std::clamp(s.probe.entered, b0, b4);
    const auto b3 = std::clamp(s.probe.left, b2, b4);
    const auto b1 = std::clamp(s.t1, b0, b2);
    if (s.t1 > s.probe.entered) ++tr.overlapped;
    const std::int64_t spans[4] = {ns_since(b0, b1), ns_since(b1, b2),
                                   ns_since(b2, b3), ns_since(b3, b4)};
    ++tr.checked;
    if (spans[0] + spans[1] + spans[2] + spans[3] != latency) {
      ++tr.mismatched;
    }
    tr.submit.add(static_cast<double>(spans[0]) / 1e3);
    tr.dispatch[cls].add(static_cast<double>(spans[1]) / 1e3);
    tr.exec.add(static_cast<double>(spans[2]) / 1e3);
    tr.complete.add(static_cast<double>(spans[3]) / 1e3);
    if (s.seq % kSpanRecordStride == 0 &&
        tr.records.size() + 5 <= tr.records.capacity()) {
      const std::uint64_t req = plan.request_base + s.seq;
      const std::uint64_t root = req * 8;
      const Clock::time_point bounds[5] = {b0, b1, b2, b3, b4};
      static constexpr const char* kNames[4] = {
          "runtime.submit", "runtime.dispatch", "runtime.exec",
          "runtime.complete"};
      tr.records.push_back({"request", kOutcomeNames[cls], req, root, 0,
                            ns_since(plan.origin, b0),
                            ns_since(plan.origin, b4)});
      for (int k = 0; k < 4; ++k) {
        tr.records.push_back({kNames[k], kOutcomeNames[cls], req,
                              root + 1 + static_cast<std::uint64_t>(k), root,
                              ns_since(plan.origin, bounds[k]),
                              ns_since(plan.origin, bounds[k + 1])});
      }
    }
  };

  while (submitted < plan.max_requests) {
    if (submitted - collected == plan.window) {
      collect(ring[collected % plan.window]);
      ++collected;
    }
    const auto t0 = Clock::now();
    if (t0 >= plan.deadline) break;
    Slot& s = ring[submitted % plan.window];
    const Request& r = stream[(plan.offset + submitted) % stream.size()];
    s.t0 = t0;
    s.arg = r.arg;
    s.seq = submitted;
    const bool corrupt = plan.corrupt_every != 0 &&
                         (submitted + 1) % plan.corrupt_every == 0;
    const hotc::workload::ConfigEntry& entry = in.mix.at(r.key);
    s.fut = hotc.submit(entry.spec, entry.app,
                        ChecksumHandler(out.trace ? &s.probe : nullptr,
                                        corrupt),
                        in.args[r.arg]);
    if (out.trace) s.t1 = Clock::now();
    ++submitted;
  }
  while (collected < submitted) {
    collect(ring[collected % plan.window]);
    ++collected;
  }
  out.next_offset = plan.offset + submitted;
}

/// One timed (or request-bounded) phase: `clients` client threads, each
/// on its own stream, run concurrently against one RealHotC.
struct PhaseOut {
  double elapsed_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t wrong_payload = 0;
  std::uint64_t bad_outcome = 0;
  std::uint64_t outcomes[kOutcomes] = {};
  Reservoir latency_ns;
  std::vector<std::unique_ptr<ClientTrace>> traces;
  std::string first_error;

  [[nodiscard]] double rps() const {
    return elapsed_s > 0.0 ? static_cast<double>(completed) / elapsed_s
                           : 0.0;
  }
};

struct PhasePlan {
  std::size_t clients = 1;
  std::size_t first_stream = 0;
  std::size_t window = 1;
  double seconds = 0.0;            // 0 = bounded by max_requests only
  std::uint64_t max_requests = ~0ull;  // per client
  bool traced = false;
  std::uint64_t corrupt_every = 0;
};

PhaseOut run_phase(RealHotC& hotc, const Inputs& in, const PhasePlan& plan,
                   std::vector<std::uint64_t>& offsets) {
  std::vector<ClientRun> runs(plan.clients);
  for (ClientRun& run : runs) {
    if (plan.traced) run.trace = std::make_unique<ClientTrace>();
  }
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (std::size_t c = 0; c < plan.clients; ++c) {
    LoopPlan lp;
    lp.stream = plan.first_stream + c;
    lp.offset = offsets[c];
    lp.window = plan.window;
    if (plan.seconds > 0.0) {
      lp.deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(plan.seconds));
    }
    lp.max_requests = plan.max_requests;
    lp.corrupt_every = plan.corrupt_every;
    lp.origin = start;
    lp.request_base = (static_cast<std::uint64_t>(c) + 1) << 40;
    threads.emplace_back([&hotc, &in, lp, c, &run = runs[c]] {
      const std::vector<int>& cpus = placement().clients;
      if (c < cpus.size()) pin_self({cpus[c]});
      run_client(hotc, in, lp, run);
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseOut out;
  out.elapsed_s = seconds_between(start, Clock::now());
  out.latency_ns = Reservoir(plan.clients * kLatencySamples);
  for (std::size_t c = 0; c < plan.clients; ++c) {
    ClientRun& run = runs[c];
    offsets[c] = run.next_offset;
    out.completed += run.completed;
    out.wrong_payload += run.wrong_payload;
    out.bad_outcome += run.bad_outcome;
    for (std::size_t k = 0; k < kOutcomes; ++k) {
      out.outcomes[k] += run.outcomes[k];
    }
    out.latency_ns.merge(run.latency_ns);
    if (run.trace) out.traces.push_back(std::move(run.trace));
    if (out.first_error.empty()) out.first_error = run.first_error;
  }
  return out;
}

/// Library counters read at a quiescent point (no request in flight).
struct Counters {
  std::uint64_t reuses = 0;
  std::uint64_t donor_lookups = 0;
  std::uint64_t donor_hits = 0;
  std::uint64_t restores = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t demotes = 0;
  std::uint64_t store_evictions = 0;
  std::uint64_t store_rejected = 0;
  std::uint64_t store_entries = 0;
  hotc::pool::PoolStats pool;
};

Counters read_counters(const RealHotC& hotc) {
  Counters c;
  c.reuses = hotc.reuses();
  c.donor_lookups = hotc.donor_lookups();
  c.donor_hits = hotc.donor_hits();
  c.restores = hotc.restores();
  c.cold_starts = hotc.cold_starts();
  c.demotes = hotc.demotes();
  c.store_evictions = hotc.snapshot_store().evictions();
  c.store_rejected = hotc.snapshot_store().rejected();
  c.store_entries = hotc.snapshot_store().entries();
  c.pool = hotc.warm_pool().stats_snapshot();
  return c;
}

std::string count_note(std::uint64_t n) { return "n=" + std::to_string(n); }

/// Per-request output checks: every payload matches its checksum, and at
/// most one of reused/respecialized/restored is set.
void check_phase_outputs(Result& r, const PhaseOut& p,
                         const std::string& phase) {
  r.attempted += p.completed;
  if (p.wrong_payload > 0) {
    r.violate(phase + ": " + std::to_string(p.wrong_payload) +
                  " wrong payloads (first: " + p.first_error + ")",
              p.wrong_payload);
  }
  if (p.bad_outcome > 0) {
    r.violate(phase + ": " + std::to_string(p.bad_outcome) +
                  " outcomes with more than one of reused/respecialized/"
                  "restored set",
              p.bad_outcome);
  }
}

/// The outcome classes agree with the library's own counters: each
/// counter moved by exactly its class count since the quiescent read
/// `since` (taken after set-up), and the snapshot ledger balances.
void check_counters(Result& r, const RealHotC& hotc, const Counters& since,
                    const std::uint64_t outcomes[kOutcomes],
                    std::uint64_t completed, const std::string& who) {
  const Counters now = read_counters(hotc);
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < kOutcomes; ++k) sum += outcomes[k];
  auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
    if (got != want) {
      r.violate(who + ": " + what + " = " + std::to_string(got) +
                ", expected " + std::to_string(want));
    }
  };
  expect("outcome classes summed", sum, completed);
  expect("reuses() delta", now.reuses - since.reuses, outcomes[kHit]);
  expect("donor_hits() delta", now.donor_hits - since.donor_hits,
         outcomes[kDonor]);
  expect("restores() delta", now.restores - since.restores,
         outcomes[kRestore]);
  expect("cold_starts() delta", now.cold_starts - since.cold_starts,
         outcomes[kCold]);
  // The checkpoint store's ledger at quiescence: every demotion was
  // restored, evicted, or is still stored.
  expect("snapshot demotes", now.demotes,
         now.restores + now.store_evictions + now.store_entries);
}

/// Per-layer numbers from a traced phase: span percentiles, profiler
/// collectors, and the library's own counters over the phase.
void add_trace_metrics(Result& r, const PhaseOut& p,
                       const hotc::obs::ProfSnapshot& prof,
                       const Counters& before, const Counters& after,
                       const std::string& suffix, const std::string& spans_out,
                       const char* workload) {
  const std::size_t pooled = kSpanSamples * p.traces.size();
  Reservoir submit(pooled), exec(pooled), complete(pooled);
  Reservoir dispatch[kOutcomes] = {Reservoir(pooled), Reservoir(pooled),
                                   Reservoir(pooled), Reservoir(pooled)};
  std::uint64_t checked = 0, mismatched = 0, overlapped = 0;
  for (const auto& tr : p.traces) {
    submit.merge(tr->submit);
    exec.merge(tr->exec);
    complete.merge(tr->complete);
    for (std::size_t k = 0; k < kOutcomes; ++k) {
      dispatch[k].merge(tr->dispatch[k]);
    }
    checked += tr->checked;
    mismatched += tr->mismatched;
    overlapped += tr->overlapped;
  }
  if (mismatched > 0) {
    r.violate(std::to_string(mismatched) +
                  " requests whose four spans do not sum to their latency",
              mismatched);
  }
  auto add_span = [&](const std::string& name, Reservoir& res) {
    r.add(name + suffix + ".p50", res.percentile(50), "us",
          count_note(res.seen()));
    r.add(name + suffix + ".p99", res.percentile(99), "us",
          count_note(res.seen()));
  };
  add_span("runtime.submit_us", submit);
  for (std::size_t k = 0; k < kOutcomes; ++k) {
    if (dispatch[k].seen() == 0) continue;
    add_span(std::string("runtime.dispatch_us.") + kOutcomeNames[k],
             dispatch[k]);
  }
  add_span("runtime.exec_us", exec);
  add_span("runtime.complete_us", complete);
  r.add("runtime.spans_checked" + suffix, static_cast<double>(checked),
        "count", "requests whose spans summed to their latency");
  r.add("runtime.overlap_ratio" + suffix,
        ratio(overlapped, checked),
        "ratio", "handler entered before submit() returned");

  // Profiler: scheduler, contention (per completed request) and stages.
  const double completed = static_cast<double>(std::max<std::uint64_t>(
      p.completed, 1));
  for (const auto& task : prof.tasks) {
    if (std::string(task.tag) != "hotc.submit" || task.count == 0) continue;
    const double n = static_cast<double>(task.count);
    r.add("runtime.queue_wait_us.mean" + suffix,
          static_cast<double>(task.queue_ns) / n / 1e3, "us");
    r.add("runtime.queue_wait_us.max" + suffix,
          static_cast<double>(task.queue_max_ns) / 1e3, "us");
    r.add("runtime.task_run_us.mean" + suffix,
          static_cast<double>(task.run_ns) / n / 1e3, "us");
    r.add("runtime.task_run_us.max" + suffix,
          static_cast<double>(task.run_max_ns) / 1e3, "us");
  }
  struct Band {
    const char* metric;
    hotc::LockRank rank;
  };
  static constexpr Band kBands[] = {
      {"runtime.lock_wait_ns", hotc::LockRank::kThreadPoolQueue},
      {"pool.lock_wait_ns", hotc::LockRank::kPoolShard},
      {"spec.lock_wait_ns", hotc::LockRank::kKeyInterner},
      {"share.lock_wait_ns", hotc::LockRank::kShareRegistry},
      {"snapshot.lock_wait_ns", hotc::LockRank::kSnapshotStore},
  };
  for (const Band& band : kBands) {
    std::uint64_t wait = 0;
    std::uint64_t waits = 0;
    for (const auto& e : prof.contention) {
      if (e.band == static_cast<std::uint32_t>(band.rank)) {
        wait += e.wait_ns;
        waits += e.count;
      }
    }
    r.add(band.metric + suffix, static_cast<double>(wait) / completed,
          "ns/req", std::to_string(waits) + " contended acquisitions");
  }
  r.add("pool.seqlock_retries" + suffix,
        static_cast<double>(prof.seqlock_retries), "count");

  if (suffix.empty()) {
    std::uint64_t samples = 0;
    for (const std::uint64_t s : prof.stage_samples) samples += s;
    struct StageName {
      const char* name;
      int index;
    };
    using hotc::obs::Stage;
    static constexpr StageName kStages[] = {
        {"pool_lookup", static_cast<int>(Stage::kPoolLookup)},
        {"donor_lookup", static_cast<int>(Stage::kDonorLookup)},
        {"respecialize", static_cast<int>(Stage::kRespecialize)},
        {"restore", static_cast<int>(Stage::kRestore)},
        {"cold_start", static_cast<int>(Stage::kColdStart)},
        {"exec", static_cast<int>(Stage::kExec)},
        {"readmit", static_cast<int>(Stage::kReadmit)},
        {"checkpoint", static_cast<int>(Stage::kCheckpoint)},
        {"idle", hotc::obs::kStageIdle},
    };
    for (const StageName& st : kStages) {
      r.add(std::string("stage.") + st.name + "_share",
            ratio(prof.stage_samples[static_cast<std::size_t>(st.index)],
                  samples),
            "ratio", count_note(samples) + " sampler hits");
    }

    const std::uint64_t hits = after.pool.hits - before.pool.hits;
    const std::uint64_t misses = after.pool.misses - before.pool.misses;
    r.add("pool.hit_ratio", ratio(hits, hits + misses), "ratio");
    r.add("pool.evictions",
          static_cast<double>(after.pool.evictions - before.pool.evictions),
          "count");
    r.add("share.donor_hit_ratio",
          ratio(after.donor_hits - before.donor_hits,
                after.donor_lookups - before.donor_lookups),
          "ratio");
    const std::uint64_t demotes = after.demotes - before.demotes;
    r.add("snapshot.restore_ratio",
          ratio(after.restores - before.restores, demotes), "ratio");
    r.add("snapshot.demotes", static_cast<double>(demotes), "count");
    r.add("snapshot.rejected",
          static_cast<double>(after.store_rejected - before.store_rejected),
          "count");
  }

  if (spans_out.empty()) return;
  std::ofstream file(spans_out, std::ios::app);
  for (const auto& tr : p.traces) {
    for (const SpanRecord& s : tr->records) {
      file << "{\"workload\":\"" << workload << "\",\"phase\":\""
           << (suffix.empty() ? "main" : suffix.substr(1))
           << "\",\"request\":" << s.request << ",\"span\":" << s.span
           << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
           << "\",\"outcome\":\"" << s.outcome
           << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
           << "}\n";
    }
  }
}

std::vector<const hotc::spec::RunSpec*> spec_stream(const Inputs& in) {
  std::vector<const hotc::spec::RunSpec*> specs;
  for (const Request& req : in.streams.front()) {
    specs.push_back(&in.mix.at(req.key).spec);
  }
  return specs;
}

/// Pre-warm `per_key` runtimes of every key: each round submits `per_key`
/// requests for one key whose handlers wait for each other, so they hold
/// distinct runtimes at once and each pays its own cold start.
void prewarm(RealHotC& hotc, const Inputs& in, std::size_t per_key,
             Result& r) {
  for (std::size_t k = 0; k < in.mix.size(); ++k) {
    std::latch all_running(static_cast<std::ptrdiff_t>(per_key));
    std::vector<std::future<RealOutcome>> futures;
    const hotc::workload::ConfigEntry& entry = in.mix.at(k);
    for (std::size_t i = 0; i < per_key; ++i) {
      futures.push_back(hotc.submit(
          entry.spec, entry.app,
          [&all_running](const std::string& arg) {
            all_running.arrive_and_wait();
            return checksum_hex(arg);
          },
          in.args[i]));
    }
    for (std::size_t i = 0; i < per_key; ++i) {
      if (futures[i].wait_for(kResolveTimeout) != std::future_status::ready) {
        fail_fast("a pre-warm request did not resolve within 60 s");
      }
      if (futures[i].get().payload != in.expected[i]) {
        r.violate("pre-warm payload mismatch", 1);
      }
    }
  }
}

/// One measured stretch of requests against one RealHotC.
struct Measured {
  // The untraced phase, run as consecutive windows: each window's
  // throughput and latency percentiles.
  std::vector<double> rps, p50_us, p99_us;
  std::uint64_t samples = 0;  // untraced requests timed
  double untraced_rps = 0.0;  // over the whole untraced phase
  std::uint64_t outcomes[kOutcomes] = {};  // over the untraced and traced
  std::uint64_t completed = 0;             // phases together
};

/// Runs `plan` untraced, as `windows` consecutive windows, and, in a
/// traced run, again traced with the profiler attached, each for half of
/// `plan.seconds`.  Checks every request's output and that the library's
/// counters moved by exactly the outcome classes seen, and adds the traced
/// phase's per-layer metrics (`suffix` tells apart several stretches of
/// one workload; the one without a suffix also reports the tracing
/// overhead).  `between_windows`, if set, runs after each untraced window,
/// outside the timed spans.
Measured measure(Result& r, RealHotC& h, const Inputs& in, PhasePlan plan,
                 std::vector<std::uint64_t>& offsets, const Args& args,
                 std::size_t windows,
                 const std::function<void()>& between_windows,
                 const std::string& suffix, const char* workload) {
  const std::string who = workload + suffix;
  Measured m;
  auto tally = [&m](const PhaseOut& p) {
    for (std::size_t k = 0; k < kOutcomes; ++k) m.outcomes[k] += p.outcomes[k];
    m.completed += p.completed;
  };
  const Counters base = read_counters(h);
  if (args.trace) plan.seconds *= 0.5;
  PhasePlan window = plan;
  window.seconds = plan.seconds / static_cast<double>(windows);
  double elapsed_s = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    PhaseOut p = run_phase(h, in, window, offsets);
    check_phase_outputs(r, p, who);
    tally(p);
    elapsed_s += p.elapsed_s;
    m.samples += p.latency_ns.seen();
    m.rps.push_back(p.rps());
    m.p50_us.push_back(p.latency_ns.percentile(50) / 1e3);
    m.p99_us.push_back(p.latency_ns.percentile(99) / 1e3);
    if (between_windows) between_windows();
  }
  m.untraced_rps = static_cast<double>(m.completed) / elapsed_s;
  if (args.trace) {
    const Counters before = read_counters(h);
    hotc::obs::Profiler::reset();
    hotc::obs::Profiler profiler;
    profiler.start();
    plan.traced = true;
    const PhaseOut traced = run_phase(h, in, plan, offsets);
    profiler.stop();
    check_phase_outputs(r, traced, who + " traced");
    tally(traced);
    add_trace_metrics(r, traced, profiler.snapshot(), before,
                      read_counters(h), suffix, args.spans_out, workload);
    if (suffix.empty()) {
      const double rps = m.untraced_rps;
      r.add("obs.trace_overhead_pct", (rps - traced.rps()) / rps * 100.0,
            "%", "req/s untraced vs traced");
    }
  }
  check_counters(r, h, base, m.outcomes, m.completed, who);
  return m;
}

/// Throughput and latency of a measured stretch, as medians over its
/// windows.  `tag` is inserted into the names (`_w1`).
void add_end_to_end(Result& r, const Measured& m, const std::string& tag,
                    const std::string& what) {
  const std::string windows =
      m.rps.size() > 1
          ? "median of " + std::to_string(m.rps.size()) + " windows, "
          : "";
  r.add("throughput" + tag + "_rps", median(m.rps), "req/s", windows + what);
  r.add("latency" + tag + "_p50_us", median(m.p50_us), "us",
        windows + count_note(m.samples));
  r.add("latency" + tag + "_p99_us", median(m.p99_us), "us",
        windows + count_note(m.samples));
}

RealOptions hit_options(std::size_t workers, std::size_t keys) {
  RealOptions o;
  o.worker_threads = workers;
  o.max_warm = keys * workers;  // nothing is ever trimmed
  o.cold_start_scale = 0.0;     // no modelled delay is slept
  return o;
}

RealOptions miss_options() {
  RealOptions o;
  o.worker_threads = 2;
  o.max_warm = 16;  // far below the 200-key working set
  o.enable_sharing = true;
  o.tiering.enabled = true;
  // Small enough to evict: the store holds only a few dozen snapshots.
  o.tiering.store.capacity_bytes = hotc::mib(256);
  return o;  // cold_start_scale stays at the library default (0.01)
}

}  // namespace

Result run_hit_path(const Args& args) {
  constexpr std::size_t kKeys = 16;
  constexpr std::size_t kWindow = 16;
  // Each phase runs as consecutive windows and reports medians over them:
  // a stall of the host in one window then moves no end-to-end number.
  constexpr std::size_t kWindows = 10;
  struct PhaseShape {
    std::size_t workers;  // = clients
    std::size_t first_stream;
    double share;  // of --seconds
    const char* suffix;
  };
  static constexpr PhaseShape kPhases[2] = {{1, 0, 1.0 / 3.0, ".w1"},
                                           {2, 1, 2.0 / 3.0, ""}};
  Result r;
  r.load_threads = 4;

  // One set-up: the inputs and, per phase, a RealHotC with every key
  // pre-warmed.
  struct SetUp {
    std::optional<Inputs> in;
    std::unique_ptr<RealHotC> hotc[2];
  };
  std::vector<double> setup_s, gen_s;
  const auto set_up = [&] {
    SetUp s;
    const auto t0 = Clock::now();
    s.in.emplace(make_inputs(hotc::workload::ConfigMix::qr_web_service(kKeys),
                             args.seed, 3));
    const auto t1 = Clock::now();
    for (std::size_t p = 0; p < 2; ++p) {
      s.hotc[p] = make_hotc(hit_options(kPhases[p].workers, kKeys));
      prewarm(*s.hotc[p], *s.in, kPhases[p].workers, r);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    gen_s.push_back(seconds_between(t0, t1));
    for (std::size_t p = 0; p < 2; ++p) {
      const RealHotC& h = *s.hotc[p];
      const std::uint64_t want = kKeys * kPhases[p].workers;
      if (h.cold_starts() != want || h.warm_count() != want) {
        r.violate("pre-warm left " + std::to_string(h.warm_count()) +
                  " warm runtimes after " + std::to_string(h.cold_starts()) +
                  " cold starts, expected " + std::to_string(want));
      }
    }
    return s;
  };
  const SetUp timed = set_up();
  // A set-up takes about 10 ms, so back-to-back repeats all meet the same
  // moment of the host: 15 of them moved their median by a third between
  // two sets of runs.  The repeats therefore run one after each untraced
  // window, and are dropped; their median samples the host over the whole
  // run, as the timed numbers do.
  const std::function<void()> set_up_again = [&set_up] { set_up(); };

  std::uint64_t total_completed = 0, total_cold = 0;
  for (std::size_t p = 0; p < 2; ++p) {
    const PhaseShape& shape = kPhases[p];
    std::vector<std::uint64_t> offsets(shape.workers, 0);
    PhasePlan plan;
    plan.clients = shape.workers;
    plan.first_stream = shape.first_stream;
    plan.window = kWindow;
    plan.corrupt_every = args.corrupt_every;
    plan.seconds = args.seconds * shape.share;
    const Measured m =
        measure(r, *timed.hotc[p], *timed.in, plan, offsets, args, kWindows,
                set_up_again, shape.suffix, "hit_path");
    const std::uint64_t misses =
        m.outcomes[kDonor] + m.outcomes[kRestore] + m.outcomes[kCold];
    if (misses != 0) {
      r.violate("hit_path: " + std::to_string(misses) +
                " misses after set-up");
    }
    total_completed += m.completed;
    total_cold += m.outcomes[kCold];
    if (!args.trace) {
      add_end_to_end(r, m, p == 0 ? "_w1" : "",
                     std::string(p == 0 ? "1 worker, 1 client"
                                        : "2 workers, 2 clients") +
                         ", window " + std::to_string(kWindow));
    }
  }

  const int setups = static_cast<int>(setup_s.size());
  if (args.trace) {
    add_spec_engine_metrics(r, spec_stream(*timed.in));
    r.add("workload.gen_s", median(gen_s), "s", setups_note(setups));
    return r;
  }
  r.add("full_cold_ratio", ratio(total_cold, total_completed), "ratio",
        count_note(total_completed));
  r.add("setup_s", median(setup_s), "s", setups_note(setups));
  return r;
}

Result run_miss_path(const Args& args) {
  constexpr std::size_t kFunctions = 200;
  constexpr std::size_t kClients = 2;
  constexpr std::size_t kWindow = 1;
  constexpr int kSetups = 3;
  const std::uint64_t fill_per_client = args.short_mode ? 100 : 1000;
  Result r;
  r.load_threads = 4;

  std::vector<double> setup_s, gen_s;
  std::optional<Inputs> in;
  std::unique_ptr<RealHotC> hotc;
  std::vector<std::uint64_t> offsets;
  std::uint64_t fill_outcomes[kOutcomes] = {};
  for (int rep = 0; rep < kSetups; ++rep) {
    hotc.reset();
    in.reset();
    const auto t0 = Clock::now();
    in.emplace(make_inputs(
        hotc::workload::ConfigMix::sibling_functions(kFunctions, 5),
        args.seed, kClients));
    const auto t1 = Clock::now();
    hotc = make_hotc(miss_options());
    offsets.assign(kClients, 0);
    PhasePlan fill;
    fill.clients = kClients;
    fill.window = kWindow;
    fill.max_requests = fill_per_client;
    fill.corrupt_every = args.corrupt_every;
    const PhaseOut filled = run_phase(*hotc, *in, fill, offsets);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    gen_s.push_back(seconds_between(t0, t1));
    if (rep + 1 == kSetups) {
      check_phase_outputs(r, filled, "miss_path fill");
      for (std::size_t k = 0; k < kOutcomes; ++k) {
        fill_outcomes[k] = filled.outcomes[k];
      }
    }
  }
  // The set-up requests are exactly the fill phase's.
  check_counters(r, *hotc, Counters{}, fill_outcomes,
                 kClients * fill_per_client, "miss_path fill");

  PhasePlan plan;
  plan.clients = kClients;
  plan.window = kWindow;
  plan.corrupt_every = args.corrupt_every;
  plan.seconds = args.seconds;
  // One window: the outcome mix still drifts as the store fills, so a
  // per-window p50 could sit between the restore and cold modes.
  const Measured m =
      measure(r, *hotc, *in, plan, offsets, args, 1, {}, "", "miss_path");

  if (args.trace) {
    add_spec_engine_metrics(r, spec_stream(*in));
    r.add("workload.gen_s", median(gen_s), "s", setups_note(kSetups));
    return r;
  }
  add_end_to_end(r, m, "", "2 workers, 2 clients, window 1");
  r.add("full_cold_ratio", ratio(m.outcomes[kCold], m.completed), "ratio",
        count_note(m.completed));
  for (std::size_t k = 0; k < kOutcomes; ++k) {
    r.add(std::string("outcome.") + kOutcomeNames[k] + "_ratio",
          ratio(m.outcomes[k], m.completed), "ratio");
  }
  r.add("setup_s", median(setup_s), "s",
        setups_note(kSetups) + ", each with a " +
            std::to_string(kClients * fill_per_client) + "-request fill");
  return r;
}

}  // namespace e2e
