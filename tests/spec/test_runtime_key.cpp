#include "spec/runtime_key.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <unordered_set>

namespace hotc::spec {
namespace {

RunSpec base_spec() {
  RunSpec s;
  s.image = ImageRef{"python", "3.8"};
  s.network = NetworkMode::kBridge;
  s.env["A"] = "1";
  return s;
}

TEST(RuntimeKey, IdenticalSpecsSameKey) {
  const auto a = RuntimeKey::from_spec(base_spec());
  const auto b = RuntimeKey::from_spec(base_spec());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.text(), b.text());
}

TEST(RuntimeKey, EveryRuntimeFieldChangesKey) {
  const auto base = RuntimeKey::from_spec(base_spec());

  auto s = base_spec();
  s.image.tag = "3.7";
  EXPECT_NE(RuntimeKey::from_spec(s), base);

  s = base_spec();
  s.network = NetworkMode::kOverlay;
  EXPECT_NE(RuntimeKey::from_spec(s), base);

  s = base_spec();
  s.uts = NamespaceMode::kHost;
  EXPECT_NE(RuntimeKey::from_spec(s), base);

  s = base_spec();
  s.ipc = NamespaceMode::kHost;
  EXPECT_NE(RuntimeKey::from_spec(s), base);

  s = base_spec();
  s.pid = NamespaceMode::kShared;
  EXPECT_NE(RuntimeKey::from_spec(s), base);

  s = base_spec();
  s.env["A"] = "2";
  EXPECT_NE(RuntimeKey::from_spec(s), base);

  s = base_spec();
  s.volumes.push_back("/x:/x");
  EXPECT_NE(RuntimeKey::from_spec(s), base);

  s = base_spec();
  s.memory_limit = mib(256);
  EXPECT_NE(RuntimeKey::from_spec(s), base);

  s = base_spec();
  s.cpu_limit = 2.0;
  EXPECT_NE(RuntimeKey::from_spec(s), base);

  s = base_spec();
  s.read_only_rootfs = true;
  EXPECT_NE(RuntimeKey::from_spec(s), base);

  s = base_spec();
  s.privileged = true;
  EXPECT_NE(RuntimeKey::from_spec(s), base);
}

TEST(RuntimeKey, CommandIsNotPartOfKey) {
  auto a = base_spec();
  a.command = "handler.py";
  auto b = base_spec();
  b.command = "other.py";
  EXPECT_EQ(RuntimeKey::from_spec(a), RuntimeKey::from_spec(b));
}

TEST(RuntimeKey, EnvOrderIrrelevant) {
  // std::map canonicalises insertion order; parse two orderings.
  auto a = base_spec();
  a.env.clear();
  a.env["X"] = "1";
  a.env["Y"] = "2";
  auto b = base_spec();
  b.env.clear();
  b.env["Y"] = "2";
  b.env["X"] = "1";
  EXPECT_EQ(RuntimeKey::from_spec(a), RuntimeKey::from_spec(b));
}

TEST(RuntimeKey, SubsetKeyIgnoresReapplicableFields) {
  auto a = base_spec();
  a.env["EXTRA"] = "yes";
  a.volumes.push_back("/v:/v");
  a.command = "run.py";
  auto b = base_spec();
  b.env.clear();
  EXPECT_NE(RuntimeKey::from_spec(a), RuntimeKey::from_spec(b));
  EXPECT_EQ(RuntimeKey::subset_from_spec(a), RuntimeKey::subset_from_spec(b));
}

TEST(RuntimeKey, SubsetKeyStillSeparatesRuntimeShape) {
  auto a = base_spec();
  auto b = base_spec();
  b.network = NetworkMode::kHost;
  EXPECT_NE(RuntimeKey::subset_from_spec(a), RuntimeKey::subset_from_spec(b));
}

TEST(RuntimeKey, UsableInUnorderedSet) {
  std::unordered_set<RuntimeKey> set;
  set.insert(RuntimeKey::from_spec(base_spec()));
  set.insert(RuntimeKey::from_spec(base_spec()));
  auto other = base_spec();
  other.image.name = "node";
  set.insert(RuntimeKey::from_spec(other));
  EXPECT_EQ(set.size(), 2u);
}

TEST(RuntimeKey, TextIsHumanReadable) {
  const auto key = RuntimeKey::from_spec(base_spec());
  EXPECT_NE(key.text().find("img=python:3.8"), std::string::npos);
  EXPECT_NE(key.text().find("net=bridge"), std::string::npos);
}

/// The printf formatter key texts were spelled with before to_chars: %g,
/// read back with strtod, else %.17g.  Key texts must stay byte-identical
/// to it, or existing keys change.
std::string reference_key_double(double v) {
  char buf[32];
  int n = std::snprintf(buf, sizeof(buf), "%g", v);
  if (std::strtod(buf, nullptr) != v) {
    n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return std::string(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
}

std::string key_double(double v) {
  std::string out;
  append_key_double(out, v);
  return out;
}

TEST(KeyDouble, MatchesPrintfOnEdgeValues) {
  using Limits = std::numeric_limits<double>;
  const double table[] = {
      0.0,       -0.0,         0.5,          0.1,
      0.1234561, 0.1234564,    1e-7,         4.0 / 3.0,
      1e300,     1.0,          2.0,          0.25,
      1e6,       123456.0,     1234567.0,    1e-5,
      Limits::infinity(),      -Limits::infinity(),
      Limits::quiet_NaN(),     -Limits::quiet_NaN(),
      Limits::denorm_min(),    -Limits::denorm_min(),
      Limits::min(),           Limits::max(),
      -Limits::max(),          Limits::epsilon(),
  };
  for (const double v : table) {
    EXPECT_EQ(key_double(v), reference_key_double(v)) << "value " << v;
  }
}

TEST(KeyDouble, MatchesPrintfOnRandomDoubles) {
  std::mt19937_64 rng(20261020);
  std::uniform_int_distribution<int> millis(0, 64000);
  int mismatches = 0;
  for (int i = 0; i < (1 << 20); ++i) {
    // Alternate raw bit patterns (every exponent, subnormals and
    // negatives included) with the 3-decimal values CPU limits take.
    double v = (i % 2 == 0) ? std::bit_cast<double>(rng())
                            : millis(rng) / 1000.0;
    if (!std::isfinite(v)) v = static_cast<double>(i);
    const std::string got = key_double(v);
    const std::string want = reference_key_double(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(v) << ": "
                    << got << " != " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Fnv1a, StableKnownValue) {
  // FNV-1a of empty string is the offset basis.
  EXPECT_EQ(fnv1a(""), 0xCBF29CE484222325ull);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
}

}  // namespace
}  // namespace hotc::spec
