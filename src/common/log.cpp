#include "common/log.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace exiot {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
std::mutex g_mutex;
LogSink g_sink;  // Empty = stderr default; guarded by g_mutex.

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void set_log_sink(LogSink sink) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_sink = std::move(sink);
}

void log_message(LogLevel level, const std::string& component,
                 const std::string& message) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_sink) {
    g_sink(level, component, message);
    return;
  }
  std::fprintf(stderr, "[%s] %s: %s\n", level_name(level), component.c_str(),
               message.c_str());
}

}  // namespace exiot
