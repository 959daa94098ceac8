#include "core/slab.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace hotc {
namespace {

TEST(Slab, FreedSlotsAreReusedAndRecordsNeverMove) {
  Slab<int> slab;
  const std::uint32_t a = slab.claim();
  slab[a] = 1;
  const int* where = &slab[a];
  std::vector<std::uint32_t> more;
  for (int i = 0; i < 1000; ++i) more.push_back(slab.claim());
  EXPECT_EQ(&slab[a], where);  // growth moved nothing
  EXPECT_EQ(slab.size(), 1001u);

  slab.free(more[10]);
  slab.free(more[20]);
  EXPECT_EQ(slab.size(), 999u);
  EXPECT_EQ(slab.claim(), more[20]);  // most recently freed first
  EXPECT_EQ(slab.claim(), more[10]);

  int live = 0;
  slab.for_each([&live](int) { ++live; });
  EXPECT_EQ(live, 1001);
}

TEST(IdSlab, ErasedIdsFindNothingAfterTheirSlotIsReused) {
  IdSlab<std::uint64_t> slab;
  for (std::uint64_t id = 1; id <= 8; ++id) slab[slab.insert(id)] = id;
  EXPECT_TRUE(slab.erase(3));
  EXPECT_FALSE(slab.erase(3));
  const std::uint32_t reused = slab.insert(100);  // takes 3's slot
  slab[reused] = 100;
  EXPECT_EQ(slab.find(3), nullptr);
  EXPECT_EQ(slab.slot_of(3), IdSlab<std::uint64_t>::kNone);
  ASSERT_NE(slab.find(100), nullptr);
  EXPECT_EQ(*slab.find(100), 100u);
  EXPECT_EQ(slab.find(9), nullptr);
  EXPECT_EQ(slab.size(), 8u);
  std::uint64_t sum = 0;
  slab.for_each([&sum](std::uint64_t v) { sum += v; });
  EXPECT_EQ(sum, 36u - 3u + 100u);
}

}  // namespace
}  // namespace hotc
