// Tiny leveled logger.  Benches run at Warn by default so figure output
// stays clean; tests flip to Debug when diagnosing.
#pragma once

#include <sstream>
#include <string>

namespace hotc {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }

  void write(LogLevel level, const std::string& component,
             const std::string& message);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
};

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogLine() { Logger::instance().write(level_, component_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream os_;
};
}  // namespace detail

/// A disabled level builds no LogLine and evaluates none of the streamed
/// operands.  The empty if-branch keeps `HOTC_DEBUG(..) << ..;` one
/// statement, so an else after it still pairs with the caller's own if.
#define HOTC_LOG(severity, component)                                    \
  if (::hotc::LogLevel::severity < ::hotc::Logger::instance().level()) { \
  } else                                                                 \
    ::hotc::detail::LogLine(::hotc::LogLevel::severity, (component))

#define HOTC_DEBUG(component) HOTC_LOG(kDebug, component)
#define HOTC_INFO(component) HOTC_LOG(kInfo, component)
#define HOTC_WARN(component) HOTC_LOG(kWarn, component)
#define HOTC_ERROR(component) HOTC_LOG(kError, component)

}  // namespace hotc
