#include <gtest/gtest.h>

#include <string>

#include "core/log.hpp"

namespace hotc {
namespace {

TEST(Logger, LevelFiltering) {
  Logger& logger = Logger::instance();
  const LogLevel original = logger.level();
  logger.set_level(LogLevel::kError);
  EXPECT_EQ(logger.level(), LogLevel::kError);
  // Below-threshold writes are silently dropped (no crash, no output
  // observable here; the call path is what we exercise).
  HOTC_DEBUG("test") << "dropped " << 42;
  HOTC_INFO("test") << "also dropped";
  logger.set_level(LogLevel::kOff);
  HOTC_ERROR("test") << "dropped too";
  logger.set_level(original);
}

TEST(Logger, StreamsArbitraryTypes) {
  Logger& logger = Logger::instance();
  const LogLevel original = logger.level();
  logger.set_level(LogLevel::kOff);
  HOTC_WARN("test") << "int=" << 7 << " double=" << 2.5 << " str="
                    << std::string("x");
  logger.set_level(original);
  SUCCEED();
}

TEST(Logger, DisabledLevelSkipsItsOperands) {
  Logger& logger = Logger::instance();
  const LogLevel original = logger.level();
  logger.set_level(LogLevel::kWarn);
  int evaluated = 0;
  const auto operand = [&evaluated] {
    ++evaluated;
    return "side-effect operand";
  };
  HOTC_DEBUG("test") << operand();
  EXPECT_EQ(evaluated, 0);

  testing::internal::CaptureStderr();
  HOTC_WARN("test") << operand();
  const std::string written = testing::internal::GetCapturedStderr();
  EXPECT_EQ(evaluated, 1);
  EXPECT_NE(written.find("side-effect operand"), std::string::npos);

  // Unbraced: the else pairs with this if, not with the macro's own.
  bool took_else = false;
  if (evaluated == 0)
    HOTC_DEBUG("test") << operand();
  else
    took_else = true;
  EXPECT_TRUE(took_else);
  EXPECT_EQ(evaluated, 1);
  logger.set_level(original);
}

}  // namespace
}  // namespace hotc
