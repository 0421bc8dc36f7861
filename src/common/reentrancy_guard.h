// Reentrancy detection for callback-driven mutation paths.
//
// The replica layer runs user-visible callbacks (evict listeners,
// mutation listeners, subscription fan-out) *while* the data structure
// that fired them is mid-mutation. The contracts say "the listener must
// not call back into this object" — this guard enforces it: the
// non-reentrant method opens an AXML_REENTRANCY_GUARD scope; a callback
// that re-enters hits the still-armed guard and aborts with both
// locations (death-tested in tests/reentrancy_contract_test.cc).
// AXML_DCHECK tier: compiled out under AXML_DISABLE_DCHECKS, a bool
// set/clear otherwise.

#ifndef AXML_COMMON_REENTRANCY_GUARD_H_
#define AXML_COMMON_REENTRANCY_GUARD_H_

#include "common/logging.h"

namespace axml {

/// Embeddable flag; one per non-reentrant region (an object may carry
/// several for independent regions).
class ReentrancyGuard {
 public:
  ReentrancyGuard() = default;
  ReentrancyGuard(const ReentrancyGuard&) = delete;
  ReentrancyGuard& operator=(const ReentrancyGuard&) = delete;

 private:
  friend class ScopedReentrancyCheck;
  bool entered_ = false;
  const char* holder_ = nullptr;  ///< description of the live entry
};

/// RAII scope marking a non-reentrant region. Prefer the macro below.
class ScopedReentrancyCheck {
 public:
  ScopedReentrancyCheck(ReentrancyGuard& guard, const char* what,
                        const char* file = __builtin_FILE(),
                        int line = __builtin_LINE())
      : guard_(guard) {
#ifndef AXML_DISABLE_DCHECKS
    if (guard_.entered_) {
      ::axml::internal::LogMessage(LogLevel::kError, file, line,
                                   /*fatal=*/true)
          << "reentrancy: " << what << " entered while "
          << (guard_.holder_ != nullptr ? guard_.holder_ : "?")
          << " is still on the stack (a listener called back into its "
             "caller)";
    }
    guard_.entered_ = true;
    guard_.holder_ = what;
#else
    (void)what;
    (void)file;
    (void)line;
#endif
  }

  ~ScopedReentrancyCheck() {
#ifndef AXML_DISABLE_DCHECKS
    guard_.entered_ = false;
    guard_.holder_ = nullptr;
#endif
  }

  ScopedReentrancyCheck(const ScopedReentrancyCheck&) = delete;
  ScopedReentrancyCheck& operator=(const ScopedReentrancyCheck&) = delete;

 private:
  ReentrancyGuard& guard_;
};

}  // namespace axml

#define AXML_REENTRANCY_CONCAT_(a, b) a##b
#define AXML_REENTRANCY_NAME_(line) \
  AXML_REENTRANCY_CONCAT_(axml_reentrancy_scope_, line)

/// Marks the enclosing scope as a non-reentrant region of `guard`.
/// `what` names the region in the abort message ("TransferCache::Put").
#define AXML_REENTRANCY_GUARD(guard, what) \
  ::axml::ScopedReentrancyCheck AXML_REENTRANCY_NAME_(__LINE__)(guard, what)

#endif  // AXML_COMMON_REENTRANCY_GUARD_H_
