#include "common/logging.h"

#include <atomic>
#include <cctype>
#include <cstring>
#include <string>

namespace axml {

namespace {

/// Latched process-wide level. Function-local static: the AXML_LOG_LEVEL
/// parse happens exactly once, on first use, and an explicit
/// SetLogLevel afterwards simply overwrites the latched value. Atomic
/// (relaxed — the level is advisory, not a synchronization point).
std::atomic<LogLevel>& Level() {
  // lint: allow-process-state — the log level is the process's, by design.
  static std::atomic<LogLevel> level =
      ParseLogLevel(std::getenv("AXML_LOG_LEVEL"), LogLevel::kWarning);
  return level;
}

const char* LevelName(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() {
  return Level().load(std::memory_order_relaxed);
}
void SetLogLevel(LogLevel level) {
  Level().store(level, std::memory_order_relaxed);
}

void ResetLogLevelForTesting() {
  SetLogLevel(ParseLogLevel(std::getenv("AXML_LOG_LEVEL"),
                            LogLevel::kWarning));
}

LogLevel ParseLogLevel(const char* s, LogLevel fallback) {
  if (s == nullptr) return fallback;
  std::string lower;
  for (const char* p = s; *p != '\0'; ++p) {
    lower += static_cast<char>(
        std::tolower(static_cast<unsigned char>(*p)));
  }
  if (lower == "debug" || lower == "0") return LogLevel::kDebug;
  if (lower == "info" || lower == "1") return LogLevel::kInfo;
  if (lower == "warning" || lower == "warn" || lower == "2") {
    return LogLevel::kWarning;
  }
  if (lower == "error" || lower == "3") return LogLevel::kError;
  return fallback;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line, bool fatal)
    : level_(level),
      fatal_(fatal),
      enabled_(fatal || static_cast<int>(level) >=
                            static_cast<int>(GetLogLevel())) {
  if (enabled_) {
    stream_ << "[" << LevelName(level_) << " " << file << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::cerr << stream_.str() << std::endl;
  }
  if (fatal_) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace axml
