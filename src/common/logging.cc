#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>

namespace tbf {

namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

// Compact per-process thread ordinal ("t0", "t1", ...) — stable for the
// thread's lifetime and far easier to eyeball across interleaved lines
// than the opaque std::thread::id hash.
int ThreadOrdinal() {
  static std::atomic<int> next{0};
  thread_local const int ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

// ISO-8601 UTC wall-clock with millisecond precision, e.g.
// 2026-08-07T12:34:56.789Z. The format is pinned by
// tests/common/logging_test.cc — log scrapers may rely on it.
void AppendWallClock(std::ostringstream& os) {
  using std::chrono::duration_cast;
  using std::chrono::milliseconds;
  using std::chrono::system_clock;
  const system_clock::time_point now = system_clock::now();
  const std::time_t seconds = system_clock::to_time_t(now);
  const int millis = static_cast<int>(
      duration_cast<milliseconds>(now.time_since_epoch()).count() % 1000);
  std::tm utc{};
  gmtime_r(&seconds, &utc);
  // Room for seven full-range ints (the tm fields are unbounded to gcc).
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, millis);
  os << buffer;
}

// Shared line prefix: [LEVEL 2026-08-07T12:34:56.789Z t3 file.cc:42]
void AppendPrefix(std::ostringstream& os, const char* level, const char* file,
                  int line) {
  os << '[' << level << ' ';
  AppendWallClock(os);
  os << " t" << ThreadOrdinal() << ' ' << Basename(file) << ':' << line
     << "] ";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_min_level.store(static_cast<int>(level)); }

LogLevel GetLogLevel() { return static_cast<LogLevel>(g_min_level.load()); }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  AppendPrefix(stream_, LevelName(level), file, line);
}

LogMessage::~LogMessage() { std::cerr << stream_.str() << std::endl; }

FatalMessage::FatalMessage(const char* file, int line) {
  AppendPrefix(stream_, "FATAL", file, line);
}

FatalMessage::~FatalMessage() {
  std::cerr << stream_.str() << std::endl;
  std::abort();
}

}  // namespace internal

}  // namespace tbf
