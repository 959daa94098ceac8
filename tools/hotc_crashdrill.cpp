// hotc_crashdrill — deliberately crash with the black box armed.
//
// CI's crash drill (and anyone debugging the dump pipeline) needs a
// process that dies the way a real controller dies: full observability
// stack wired (tracer, journal, SLO engine, time-series store), real
// traffic in the rings, and then a genuine invariant failure — a seeded
// pool-ledger conservation violation routed through audit::enforce(),
// which fires the core/crash_hook.hpp pre-abort seam, which makes the
// BlackBox write its dump before abort() takes the process.
//
// Expected behavior: prints the armed dump path, runs a short simulated
// scenario, then dies with SIGABRT (exit 134 under a shell).  The dump
// it leaves behind must decode cleanly with hotc_postmortem — that round
// trip IS the drill.
//
// Usage: hotc_crashdrill [DUMP_PATH]    (default: OBS_blackbox.dump in
//                                        the bench output dir)
#include <iostream>
#include <string>

#include "common.hpp"
#include "engine/app.hpp"
#include "hotc/controller.hpp"
#include "obs/blackbox.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"
#include "pool/audit.hpp"
#include "pool/pool.hpp"

using namespace hotc;

namespace {

spec::RunSpec keyed_spec(std::size_t i) {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  s.env["IDX"] = std::to_string(i);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dump_path =
      argc > 1 ? argv[1]
               : hotc::bench::output_dir() + "/OBS_blackbox.dump";

  obs::Registry registry;
  obs::Tracer tracer(4096, &registry);
  obs::DecisionJournal journal(1024);
  obs::SloEngine slo(registry, obs::default_slos());
  obs::TimeSeriesStore tsdb(registry, obs::TsdbOptions{}, &slo);

  obs::BlackBox blackbox(dump_path);
  if (!blackbox.ok()) {
    std::cerr << "hotc_crashdrill: cannot open dump file " << dump_path
              << "\n";
    return 2;
  }
  blackbox.attach_ring(obs::kRegionFlightRing, "flight_ring",
                       tracer.recorder().raw_ring());
  blackbox.attach_ring(obs::kRegionJournalRing, "journal_ring",
                       journal.raw_ring());
  blackbox.attach_tsdb(tsdb);
  blackbox.install_signal_handlers();
  blackbox.install_abort_hook();
  std::cout << "armed: " << blackbox.path() << "\n";

  obs::Profiler::reset();
  obs::Profiler profiler;
  profiler.start();

  // A short but real scenario: 8 keys, a few control rounds, so the
  // dump carries spans, per-key decisions, SLO state and TSDB frames.
  sim::Simulator sim;
  engine::ContainerEngine engine(sim, engine::HostProfile::server());
  engine.preload_image(spec::ImageRef{"python", "3.8"});
  engine.attach_metrics(registry);
  ControllerOptions opt;
  opt.registry = &registry;
  opt.tracer = &tracer;
  opt.journal = &journal;
  opt.slo = &slo;
  opt.tsdb = &tsdb;
  opt.blackbox = &blackbox;
  HotCController ctl(engine, std::move(opt));

  const auto app = engine::apps::qr_encoder();
  for (int round = 0; round < 6; ++round) {
    for (std::size_t i = 0; i < 8; ++i) {
      ctl.handle(keyed_spec(i), app, [](Result<RequestOutcome>) {});
    }
    sim.run();
    ctl.adaptive_tick();
    sim.run();
  }
  blackbox.update_prof_mirror(profiler.snapshot());
  profiler.stop();

  std::cout << "scenario done (tick " << journal.last_tick()
            << "); seeding ledger violation...\n";
  std::cout.flush();

  // One admitted residency that is neither pooled, leased, nor removed:
  // the conservation identity cannot hold, the auditor aborts, and the
  // pre-abort hook dumps the black box on the way down.
  pool::PoolFlows bad;
  bad.admitted = 1;
  audit::enforce(audit::verify(bad),
                 "crash-drill: seeded conservation violation");

  // Unreachable: enforce() above must abort.
  std::cerr << "hotc_crashdrill: auditor did not abort\n";
  return 3;
}
