// The shared donor choice plus the engine conversion it prices.
//
// choose_donor must (a) never pick a sibling outside the request's
// compatibility class, (b) reject a donor whose conversion price exceeds
// max_cost_ratio of the request's cold start, and (c) price exactly what
// ContainerEngine::respecialize then charges — the one CostModel price —
// while the conversion re-keys the donor in place: re-spec'd, app state
// dropped, and immediately executable.
#include "share/donor_choice.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "engine/app.hpp"
#include "engine/engine.hpp"
#include "pool/pool.hpp"
#include "sim/simulator.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::share {
namespace {

spec::RunSpec function_spec(const std::string& func) {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  s.env["FUNC"] = func;
  s.command = "handler";
  return s;
}

class DonorChoiceTest : public ::testing::Test {
 protected:
  engine::ContainerId launch(const spec::RunSpec& s) {
    engine_.preload_image(s.image);
    engine::ContainerId id = 0;
    engine_.launch(s, [&](Result<engine::LaunchReport> r) {
      id = r.value().container;
    });
    sim_.run();
    return id;
  }

  /// Two idle runtimes of `s` in the pool: surplus a non-nominated key may
  /// donate.  Returns the first one's id.
  engine::ContainerId stock_two(const spec::RunSpec& s) {
    const spec::RuntimeKey key = spec::RuntimeKey::from_spec(s);
    donors_.record(key, engine_.prepare(s));
    engine::ContainerId first = 0;
    for (int i = 0; i < 2; ++i) {
      pool::PoolEntry e;
      e.id = launch(s);
      e.key = key;
      pool_.add_available(e, sim_.now());
      if (first == 0) first = e.id;
    }
    return first;
  }

  std::optional<DonorChoice> choose(const spec::RunSpec& request,
                                    double max_cost_ratio = 0.8) {
    engine_.preload_image(request.image);
    const engine::FunctionHandle& fn = engine_.prepare(request);
    return choose_donor(donors_, pool_, engine_.cost_model(), fn, fn.key,
                        engine_.estimate_startup(fn).total(),
                        engine_.image_store().missing_bytes(fn.image),
                        max_cost_ratio);
  }

  sim::Simulator sim_;
  engine::ContainerEngine engine_{sim_, engine::HostProfile::server()};
  pool::RuntimePool pool_;
  DonorRegistry donors_;
};

TEST_F(DonorChoiceTest, SiblingIsViableAndCheaperThanCold) {
  stock_two(function_spec("alpha"));
  const auto choice = choose(function_spec("beta"));
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->donor.key,
            spec::RuntimeKey::from_spec(function_spec("alpha")));
  EXPECT_TRUE(choice->viable);
  EXPECT_GT(choice->respec, kZeroDuration);
  EXPECT_LT(choice->respec,
            engine_.estimate_startup(function_spec("beta")).total());
}

TEST_F(DonorChoiceTest, IncompatibleDonorIsNeverChosen) {
  spec::RunSpec other = function_spec("beta");
  other.image = spec::ImageRef{"golang", "1.15"};
  stock_two(other);
  EXPECT_FALSE(choose(function_spec("alpha")).has_value());
}

TEST_F(DonorChoiceTest, ZeroCostRatioRejectsEveryConversion) {
  // With a zero ratio any nonzero conversion fails the gate, even though
  // the donor is perfectly compatible — the gate is economic, not shape.
  stock_two(function_spec("alpha"));
  const auto choice = choose(function_spec("beta"), /*max_cost_ratio=*/0.0);
  ASSERT_TRUE(choice.has_value());
  EXPECT_GT(choice->respec, kZeroDuration);
  EXPECT_FALSE(choice->viable);
}

TEST_F(DonorChoiceTest, ConversionRekeysAtThePricedCost) {
  const spec::RunSpec donor_spec = function_spec("alpha");
  // A memory-limit change on top of the env delta: the price includes the
  // cgroup rewrite, and so does the engine's conversion.
  spec::RunSpec target = function_spec("beta");
  target.memory_limit = mib(256);
  const engine::ContainerId id = stock_two(donor_spec);

  const auto choice = choose(target);
  ASSERT_TRUE(choice.has_value());
  std::optional<engine::RespecBreakdown> report;
  const TimePoint before = sim_.now();
  engine_.respecialize(id, target, [&](Result<engine::RespecBreakdown> r) {
    ASSERT_TRUE(r.ok());
    report = r.value();
  });
  sim_.run();

  ASSERT_TRUE(report.has_value());
  EXPECT_GT(report->cgroups, kZeroDuration);
  // The launched donor executed nothing, so its volume is clean and the
  // actual conversion must land exactly on the zero-dirty price.
  EXPECT_EQ(report->total(), choice->respec);
  EXPECT_EQ(sim_.now() - before, choice->respec);

  const engine::Container* c = engine_.find(id);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state, engine::ContainerState::kIdle);
  EXPECT_EQ(c->fn->spec, target);
  EXPECT_EQ(c->fn->key, spec::RuntimeKey::from_spec(target));
  EXPECT_NE(c->fn->key, spec::RuntimeKey::from_spec(donor_spec));
  EXPECT_TRUE(c->warm_app.empty());  // donor's app state is gone
}

TEST_F(DonorChoiceTest, ConvertedRuntimeExecutesTheNewFunction) {
  const engine::ContainerId id = launch(function_spec("alpha"));
  engine_.respecialize(id, function_spec("beta"),
                       [](Result<engine::RespecBreakdown> r) {
                         ASSERT_TRUE(r.ok());
                       });
  sim_.run();

  std::optional<engine::ExecReport> exec;
  engine_.exec(id, engine::apps::qr_encoder(),
               [&](Result<engine::ExecReport> r) { exec = r.value(); });
  sim_.run();
  ASSERT_TRUE(exec.has_value());
  EXPECT_GT(exec->app_init, kZeroDuration);  // fresh app, init paid
}

TEST_F(DonorChoiceTest, ConversionRefusesIncompatibleTarget) {
  const engine::ContainerId id = launch(function_spec("alpha"));
  spec::RunSpec target = function_spec("beta");
  target.image = spec::ImageRef{"golang", "1.15"};
  std::optional<Error> error;
  engine_.respecialize(id, target, [&](Result<engine::RespecBreakdown> r) {
    ASSERT_FALSE(r.ok());
    error = r.error();
  });
  sim_.run();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, "engine.incompatible");
}

TEST_F(DonorChoiceTest, ConversionRefusesUnknownContainer) {
  std::optional<Error> error;
  engine_.respecialize(4242, function_spec("beta"),
                       [&](Result<engine::RespecBreakdown> r) {
                         ASSERT_FALSE(r.ok());
                         error = r.error();
                       });
  sim_.run();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, "engine.unknown_container");
}

}  // namespace
}  // namespace hotc::share
