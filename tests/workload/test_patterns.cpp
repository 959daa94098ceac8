#include "workload/patterns.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace hotc::workload {
namespace {

bool is_sorted_by_time(const ArrivalList& list) {
  return std::is_sorted(list.begin(), list.end());
}

TEST(Patterns, SerialSpacing) {
  const auto list = serial(10, seconds(30));
  ASSERT_EQ(list.size(), 10u);
  EXPECT_TRUE(is_sorted_by_time(list));
  EXPECT_EQ(list[0].at, kZeroDuration);
  EXPECT_EQ(list[9].at, seconds(270));
  for (const auto& a : list) EXPECT_EQ(a.config_index, 0u);
}

TEST(Patterns, ParallelEachThreadOwnConfig) {
  const auto list = parallel(10, 3, seconds(30));
  ASSERT_EQ(list.size(), 30u);
  std::set<std::size_t> configs;
  for (const auto& a : list) configs.insert(a.config_index);
  EXPECT_EQ(configs.size(), 10u);
  EXPECT_TRUE(is_sorted_by_time(list));
}

TEST(Patterns, LinearIncreasingCounts) {
  const auto list = linear_increasing(2, 2, 5, seconds(30));
  // Rounds carry 2,4,6,8,10 = 30 requests.
  EXPECT_EQ(list.size(), 30u);
  const auto counts = counts_per_interval(list, seconds(30), 5);
  EXPECT_EQ(counts, (std::vector<double>{2, 4, 6, 8, 10}));
}

TEST(Patterns, LinearDecreasingFloorsAtZero) {
  const auto list = linear_decreasing(6, 2, 6, seconds(10));
  const auto counts = counts_per_interval(list, seconds(10), 6);
  EXPECT_EQ(counts, (std::vector<double>{6, 4, 2, 0, 0, 0}));
}

TEST(Patterns, ExponentialIncreasing) {
  const auto list = exponential_increasing(5, seconds(10));
  const auto counts = counts_per_interval(list, seconds(10), 5);
  EXPECT_EQ(counts, (std::vector<double>{1, 2, 4, 8, 16}));
}

TEST(Patterns, ExponentialDecreasing) {
  const auto list = exponential_decreasing(5, seconds(10));
  const auto counts = counts_per_interval(list, seconds(10), 5);
  EXPECT_EQ(counts, (std::vector<double>{16, 8, 4, 2, 1}));
}

TEST(Patterns, BurstRoundsMultiplied) {
  const auto list = burst(8, 10.0, {4, 8}, 10, seconds(10));
  const auto counts = counts_per_interval(list, seconds(10), 10);
  EXPECT_EQ(counts[0], 8);
  EXPECT_EQ(counts[4], 80);
  EXPECT_EQ(counts[8], 80);
  EXPECT_EQ(counts[9], 8);
}

TEST(Patterns, SquareWaveLandsEachLevelOneSecondIntoItsRound) {
  const auto list = square_wave(2, 3, 1, 5, seconds(30), 4);
  EXPECT_EQ(counts_per_interval(list, seconds(30), 3),
            (std::vector<double>{3, 3, 5}));
  EXPECT_TRUE(is_sorted_by_time(list));
  EXPECT_EQ(list.front().at, seconds(1));
  EXPECT_EQ(list.back().at, seconds(61));
  EXPECT_EQ(list[2].config_index, 2u);
  EXPECT_EQ(list.back().config_index, 0u);  // request 4 of the round
  for (const auto& a : square_wave(1, 3, 0, 0, seconds(30))) {
    EXPECT_EQ(a.config_index, 0u);
  }
}

TEST(Patterns, PoissonApproximatesRate) {
  Rng rng(3);
  const auto list = poisson(5.0, minutes(10), rng);
  const double rate =
      static_cast<double>(list.size()) / to_seconds(minutes(10));
  EXPECT_NEAR(rate, 5.0, 0.5);
  EXPECT_TRUE(is_sorted_by_time(list));
}

TEST(Patterns, PoissonConfigsWithinBounds) {
  Rng rng(7);
  const auto list = poisson(10.0, minutes(1), rng, 5);
  for (const auto& a : list) EXPECT_LT(a.config_index, 5u);
}

TEST(Patterns, FromCountsRoundTrips) {
  const std::vector<double> counts{3, 0, 7, 1};
  const auto list = from_counts(counts, seconds(60));
  const auto back = counts_per_interval(list, seconds(60), 4);
  EXPECT_EQ(back, counts);
}

TEST(Patterns, CountsIgnoreOutOfRangeArrivals) {
  ArrivalList list{{seconds(5), 0}, {seconds(500), 0}};
  const auto counts = counts_per_interval(list, seconds(10), 3);
  EXPECT_EQ(counts, (std::vector<double>{1, 0, 0}));
}

TEST(Patterns, SpreadWithinRound) {
  // Arrivals inside a round must not all collide at the round start.
  const auto list = linear_increasing(4, 0, 1, seconds(40));
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[0].at, kZeroDuration);
  EXPECT_EQ(list[1].at, seconds(10));
  EXPECT_EQ(list[3].at, seconds(30));
}

}  // namespace
}  // namespace hotc::workload
