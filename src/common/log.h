// Leveled logging used by operational modules (pipeline, API). Quiet by
// default so tests and benches stay readable; raise the level to debug a run.
// The sink is pluggable (set_log_sink) so deployments can forward log lines
// to a collector; the default writes "[LEVEL] component: message" to stderr.
#pragma once

#include <functional>
#include <string>

namespace exiot {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global minimum level (default: kWarn).
void set_log_level(LogLevel level);
LogLevel log_level();

/// Receives every enabled log line. Called under the logging mutex, so
/// implementations need no locking of their own but must not log
/// reentrantly.
using LogSink =
    std::function<void(LogLevel, const std::string& component,
                       const std::string& message)>;

/// Replaces the global sink; an empty function restores the stderr
/// default. Safe to call concurrently with logging: the swap happens under
/// the same mutex log_message holds while invoking the sink, so no line is
/// ever delivered to a half-replaced sink.
void set_log_sink(LogSink sink);

/// Routes a line through the active sink if enabled (stderr by default).
void log_message(LogLevel level, const std::string& component,
                 const std::string& message);

#define EXIOT_LOG(level, component, message) \
  do {                                       \
    if (static_cast<int>(level) >=           \
        static_cast<int>(::exiot::log_level())) \
      ::exiot::log_message(level, component, message); \
  } while (0)

}  // namespace exiot
