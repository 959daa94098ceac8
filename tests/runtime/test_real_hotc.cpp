#include "runtime/real_hotc.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "engine/cost_model.hpp"
#include "engine/image.hpp"
#include "pool/sharded_pool.hpp"
#include "snapshot/tiering.hpp"
#include "workload/mix.hpp"

namespace hotc::runtime {
namespace {

spec::RunSpec python_spec() {
  spec::RunSpec s;
  s.image = spec::ImageRef{"python", "3.8"};
  s.network = spec::NetworkMode::kBridge;
  return s;
}

RealOptions fast_options() {
  RealOptions opt;
  opt.worker_threads = 2;
  opt.cold_start_scale = 0.001;  // keep tests fast
  return opt;
}

TEST(RealHotC, ExecutesHandlerAndReturnsPayload) {
  RealHotC hotc(fast_options());
  auto f = hotc.submit(python_spec(), engine::apps::qr_encoder(),
                       [](const std::string& in) { return "qr:" + in; },
                       "https://example.com");
  const RealOutcome out = f.get();
  EXPECT_EQ(out.payload, "qr:https://example.com");
  EXPECT_FALSE(out.reused);
  EXPECT_GT(out.modeled_cold, kZeroDuration);
}

TEST(RealHotC, SecondSubmissionReusesRuntime) {
  RealHotC hotc(fast_options());
  const auto app = engine::apps::qr_encoder();
  hotc.submit(python_spec(), app,
              [](const std::string&) { return "a"; }, "")
      .get();
  const RealOutcome second =
      hotc.submit(python_spec(), app,
                  [](const std::string&) { return "b"; }, "")
          .get();
  EXPECT_TRUE(second.reused);
  EXPECT_TRUE(second.app_was_warm);
  EXPECT_EQ(hotc.cold_starts(), 1u);
  EXPECT_EQ(hotc.reuses(), 1u);
}

TEST(RealHotC, WarmRuntimeFasterThanCold) {
  RealOptions opt;
  opt.worker_threads = 1;
  opt.cold_start_scale = 0.02;  // make the cold delay clearly measurable
  RealHotC hotc(opt);
  const auto app = engine::apps::v3_app();
  const auto cold =
      hotc.submit(python_spec(), app,
                  [](const std::string&) { return ""; }, "")
          .get();
  const auto warm =
      hotc.submit(python_spec(), app,
                  [](const std::string&) { return ""; }, "")
          .get();
  EXPECT_LT(to_seconds(warm.wall_time), to_seconds(cold.wall_time));
}

TEST(RealHotC, DifferentKeysDoNotShare) {
  RealHotC hotc(fast_options());
  const auto app = engine::apps::qr_encoder();
  hotc.submit(python_spec(), app,
              [](const std::string&) { return ""; }, "")
      .get();
  spec::RunSpec other = python_spec();
  other.image = spec::ImageRef{"node", "14"};
  const auto out =
      hotc.submit(other, app, [](const std::string&) { return ""; }, "")
          .get();
  EXPECT_FALSE(out.reused);
  EXPECT_EQ(hotc.cold_starts(), 2u);
}

TEST(RealHotC, DifferentAppSameRuntimeReusesButReinits) {
  RealHotC hotc(fast_options());
  hotc.submit(python_spec(), engine::apps::qr_encoder(),
              [](const std::string&) { return ""; }, "")
      .get();
  const auto out = hotc.submit(python_spec(), engine::apps::v3_app(),
                               [](const std::string&) { return ""; }, "")
                       .get();
  EXPECT_TRUE(out.reused);         // runtime key matched
  EXPECT_FALSE(out.app_was_warm);  // but the model had to load
}

TEST(RealHotC, ManyConcurrentSubmissions) {
  RealOptions opt = fast_options();
  opt.worker_threads = 4;
  RealHotC hotc(opt);
  const auto app = engine::apps::random_number();
  std::vector<std::future<RealOutcome>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(hotc.submit(
        python_spec(), app,
        [](const std::string& in) { return in + "!"; }, std::to_string(i)));
  }
  int reused = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto out = futures[i].get();
    EXPECT_EQ(out.payload, std::to_string(i) + "!");
    if (out.reused) ++reused;
  }
  EXPECT_EQ(hotc.cold_starts() + hotc.reuses(), 40u);
  EXPECT_GT(reused, 30);  // at most a handful of cold starts for 4 workers
}

TEST(RealHotC, WarmCapRespected) {
  RealOptions opt = fast_options();
  opt.max_warm = 2;
  RealHotC hotc(opt);
  const auto app = engine::apps::random_number();
  std::vector<std::future<RealOutcome>> futures;
  for (int i = 0; i < 10; ++i) {
    spec::RunSpec s = python_spec();
    s.env["IDX"] = std::to_string(i);  // all distinct keys
    futures.push_back(hotc.submit(
        s, app, [](const std::string&) { return ""; }, ""));
  }
  for (auto& f : futures) f.get();
  EXPECT_LE(hotc.warm_count(), 2u);
}

TEST(RealHotC, SubmitAfterShutdownYieldsEmptyOutcome) {
  RealHotC hotc(fast_options());
  hotc.shutdown();
  const auto out = hotc.submit(python_spec(), engine::apps::random_number(),
                               [](const std::string&) { return "x"; }, "")
                       .get();
  EXPECT_TRUE(out.payload.empty());
}

TEST(RealHotC, ThrowingHandlerFailsItsFutureOnly) {
  RealHotC hotc(fast_options());
  const auto app = engine::apps::qr_encoder();
  const auto ok = [](const std::string&) { return std::string("ok"); };
  hotc.submit(python_spec(), app, ok, "").get();  // pools one runtime
  ASSERT_EQ(hotc.warm_count(), 1u);

  auto failed = hotc.submit(
      python_spec(), app,
      [](const std::string&) -> std::string {
        throw std::runtime_error("handler failed");
      },
      "");
  try {
    failed.get();
    ADD_FAILURE() << "the future did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "handler failed");
  }
  // The runtime the handler failed in was reused, then dropped.
  EXPECT_EQ(hotc.reuses(), 1u);
  EXPECT_EQ(hotc.warm_count(), 0u);

  // The workers survive: later requests run, the next one cold.
  const RealOutcome next = hotc.submit(python_spec(), app, ok, "").get();
  EXPECT_EQ(next.payload, "ok");
  EXPECT_FALSE(next.reused);
  EXPECT_EQ(hotc.cold_starts(), 2u);
  EXPECT_EQ(hotc.submit(python_spec(), app, ok, "").get().payload, "ok");

  const auto& warm =
      dynamic_cast<const pool::ShardedRuntimePool&>(hotc.warm_pool());
  EXPECT_TRUE(warm.check_conservation().ok());
  const pool::PoolFlows flows = warm.flows_snapshot();
  EXPECT_EQ(flows.leased, 2u);  // the failed lease never came back
}

// The per-key plan holds exactly what a fresh per-request computation
// would, for every spec the benchmark mixes submit.
TEST(RealHotC, PlanMatchesFreshCostModel) {
  RealOptions opt = fast_options();
  opt.cold_start_scale = 0.0;
  RealHotC hotc(opt);
  const engine::CostModel cost(opt.host);
  for (const workload::ConfigMix& mix :
       {workload::ConfigMix::qr_web_service(16),
        workload::ConfigMix::sibling_functions(200, 5)}) {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const spec::RunSpec& s = mix.at(i).spec;
      const RealOutcome out =
          hotc.submit(s, mix.at(i).app,
                      [](const std::string&) { return std::string(); }, "")
              .get();
      const engine::Image image = engine::image_for_name(s.image);
      const Duration cold = cost.startup(s, image, 0).total();
      const Bytes image_bytes = image.base_memory + mib(2);
      const RealHotC::KeyPlan* plan =
          hotc.plan(spec::RuntimeKey::from_spec(s).id());
      ASSERT_NE(plan, nullptr);
      EXPECT_EQ(plan->cold, cold);
      EXPECT_EQ(out.modeled_cold, cold);
      EXPECT_EQ(plan->image_bytes, image_bytes);
      EXPECT_EQ(to_seconds(plan->restore),
                to_seconds(cost.restore_time(image_bytes, s)));
      EXPECT_EQ(plan->tenant, snapshot::tenant_of(s));
    }
  }
}

TEST(RealHotC, SpecsDifferingOnlyInCommandShareAPlan) {
  RealHotC hotc(fast_options());
  const auto app = engine::apps::qr_encoder();
  const auto handler = [](const std::string&) { return std::string(); };
  spec::RunSpec a = python_spec();
  a.command = "python app.py --mode=a";
  spec::RunSpec b = python_spec();
  b.command = "python app.py --mode=b";
  const spec::KeyId key = spec::RuntimeKey::from_spec(a).id();
  ASSERT_EQ(key, spec::RuntimeKey::from_spec(b).id());
  EXPECT_EQ(hotc.plan(key), nullptr);  // built on first submission

  hotc.submit(a, app, handler, "").get();
  const RealHotC::KeyPlan* plan = hotc.plan(key);
  ASSERT_NE(plan, nullptr);
  const RealOutcome out = hotc.submit(b, app, handler, "").get();
  EXPECT_TRUE(out.reused);
  EXPECT_EQ(hotc.plan(key), plan);
  EXPECT_EQ(plan->spec.command, a.command);  // the first spec, kept stable
}

}  // namespace
}  // namespace hotc::runtime
