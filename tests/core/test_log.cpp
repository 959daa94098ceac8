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

}  // namespace
}  // namespace hotc
