// The function table derives each per-function fact once per runtime key.
// Every handle field must equal what the per-request derivation it
// replaces gives, for every spec the benches, examples and shipped
// scenarios submit; specs that differ only in their command share one
// handle; an unresolvable image is kept as the registry's error.
#include "engine/function_table.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "scenario/scenario.hpp"
#include "snapshot/tiering.hpp"
#include "workload/mix.hpp"

namespace hotc::engine {
namespace {

std::vector<spec::RunSpec> corpus() {
  std::vector<spec::RunSpec> specs;
  const auto add = [&specs](const workload::ConfigMix& mix) {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      specs.push_back(mix.at(i).spec);
    }
  };
  add(workload::ConfigMix::qr_web_service(16));
  add(workload::ConfigMix::sibling_functions(200, 5));
  add(workload::ConfigMix::image_recognition(spec::NetworkMode::kBridge));
  add(workload::ConfigMix::image_recognition(spec::NetworkMode::kOverlay));
  const std::filesystem::path dir =
      std::filesystem::path(HOTC_SOURCE_DIR) / "examples" / "scenarios";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    const auto parsed = scenario::parse_scenario_text(text.str());
    EXPECT_TRUE(parsed.ok()) << entry.path();
    if (parsed.ok()) add(parsed.value().mix);
  }
  return specs;
}

void expect_same_image(const Image& got, const Image& want) {
  EXPECT_EQ(got.ref.full(), want.ref.full());
  EXPECT_EQ(got.runtime, want.runtime);
  EXPECT_EQ(got.base_memory, want.base_memory);
  ASSERT_EQ(got.layers.size(), want.layers.size());
  for (std::size_t i = 0; i < got.layers.size(); ++i) {
    EXPECT_EQ(got.layers[i].digest, want.layers[i].digest);
    EXPECT_EQ(got.layers[i].size, want.layers[i].size);
    EXPECT_EQ(got.layers[i].extracted_size, want.layers[i].extracted_size);
  }
}

TEST(FunctionTable, HandleFieldsMatchPerRequestDerivation) {
  const Registry registry;
  const CostModel cost(HostProfile::server());
  FunctionTable table(registry, cost);
  const std::vector<spec::RunSpec> specs = corpus();
  ASSERT_GT(specs.size(), 230u);
  for (const spec::RunSpec& s : specs) {
    const FunctionHandle& fn = table.prepare(s);
    EXPECT_EQ(fn.key, spec::RuntimeKey::from_spec(s));
    EXPECT_EQ(fn.subset_key(), spec::RuntimeKey::subset_from_spec(s));
    EXPECT_EQ(fn.compat(), spec::CompatClass::from_spec(s));
    const Result<Image> image = registry.resolve(s.image);
    ASSERT_TRUE(image.ok());
    ASSERT_TRUE(fn.resolved());
    expect_same_image(fn.image, image.value());
    const Bytes image_bytes = image.value().base_memory + mib(2);
    EXPECT_EQ(fn.image_bytes, image_bytes);
    EXPECT_EQ(fn.restore, cost.restore_time(image_bytes, s));
    EXPECT_EQ(fn.cold, cost.startup(s, image.value(), 0).total());
    EXPECT_EQ(fn.tenant, snapshot::tenant_of(s));
    EXPECT_EQ(table.find(fn.key.id()), &fn);
  }
}

TEST(FunctionTable, SpecsDifferingOnlyInCommandShareAHandle) {
  const Registry registry;
  const CostModel cost(HostProfile::server());
  FunctionTable table(registry, cost);
  spec::RunSpec a;
  a.image = spec::ImageRef{"python", "3.8"};
  a.env["FUNC"] = "table-command";
  a.command = "python app.py --mode=a";
  spec::RunSpec b = a;
  b.command = "python app.py --mode=b";
  b.entrypoint_override = "/bin/sh";

  bool published = false;
  const FunctionHandle& first = table.prepare(a, &published);
  EXPECT_TRUE(published);
  const FunctionHandle& second = table.prepare(b, &published);
  EXPECT_FALSE(published);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.spec.command, a.command);  // the first spec, kept stable
  EXPECT_EQ(table.size(), 1u);
}

TEST(FunctionTable, CpuLimitsDifferingPastSixDigitsGetTheirOwnHandles) {
  const Registry registry;
  const CostModel cost(HostProfile::server());
  FunctionTable table(registry, cost);
  spec::RunSpec a;
  a.image = spec::ImageRef{"python", "3.8"};
  a.cpu_limit = 0.1234561;
  spec::RunSpec b = a;
  b.cpu_limit = 0.1234564;
  const FunctionHandle& first = table.prepare(a);
  const FunctionHandle& second = table.prepare(b);
  EXPECT_NE(first.key.id(), second.key.id());
  EXPECT_NE(&first, &second);
  EXPECT_EQ(second.spec.cpu_limit, b.cpu_limit);

  // A limit %g writes exactly keeps its historical text.
  spec::RunSpec half = a;
  half.cpu_limit = 0.5;
  EXPECT_NE(table.prepare(half).key.text().find("|cpu=0.5|"),
            std::string::npos);
}

TEST(FunctionTable, UnknownImageKeepsTheRegistryError) {
  Registry registry;
  registry.set_synthesize_unknown(false);
  const CostModel cost(HostProfile::server());
  FunctionTable table(registry, cost);
  spec::RunSpec s;
  s.image = spec::ImageRef{"not-a-real-image", "v0"};

  const FunctionHandle& fn = table.prepare(s);
  ASSERT_FALSE(fn.resolved());
  const Result<Image> image = registry.resolve(s.image);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(fn.image_error->code, image.error().code);
  EXPECT_EQ(fn.image_error->message, image.error().message);
  EXPECT_TRUE(fn.image.layers.empty());
  EXPECT_EQ(fn.cold, kZeroDuration);
  EXPECT_EQ(fn.restore, kZeroDuration);
  EXPECT_EQ(fn.image_bytes, 0);
  EXPECT_EQ(fn.key, spec::RuntimeKey::from_spec(s));
}

}  // namespace
}  // namespace hotc::engine
