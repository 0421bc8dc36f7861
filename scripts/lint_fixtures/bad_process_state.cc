// Negative fixture: mutable function-local statics, state every system
// in the process would share. check_source.py's process-state check must
// flag each marked line and accept the legal shapes around them.

#include <cstdint>
#include <memory>
#include <string>

namespace axml {

// Namespace scope is not a function body: not this check's concern.
static int file_counter = 0;

struct Holder {
  // Static member functions and constants are not state.
  static int Make() { return 1; }
  static constexpr int kLimit = 4;

  int Next() {
    static int calls = 0;                            // MUST be flagged
    return ++calls;
  }
};

template <class T>
T Mint() {
  static T last{};                                   // MUST be flagged
  return last;
}

std::string FixtureProcessState() {
  static uint64_t counter = 0;                       // MUST be flagged
  static std::string name{"shipped"};                // MUST be flagged
  static std::shared_ptr<int> shared(new int(0));    // MUST be flagged
  static int uninitialized;                          // MUST be flagged
  static const int kConst = 1;
  static const std::shared_ptr<int> kShared(new int(3));
  static constexpr int kConstexpr = 2;
  struct Local {
    // A local class's static member function is not state.
    static int Make() { return 5; }
  };
  auto bump = [] {
    static int* seen = nullptr;                      // MUST be flagged
    return seen;
  };
  if (counter == 0) {
    static bool once = true;                         // MUST be flagged
    (void)once;
  }
  // lint: allow-process-state — waived by the line above: NOT flagged
  static int waived = 0;
  // static int in_a_comment = 0;
  (void)bump;
  (void)uninitialized;
  return name + std::to_string(counter++ + kConst + kConstexpr + waived +
                               file_counter + Holder::Make() + *shared +
                               *kShared + Local::Make());
}

}  // namespace axml
