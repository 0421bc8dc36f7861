// Negative fixture: every way a second thread or a lock enters the
// one-thread simulation. check_source.py's no-threads check must flag
// each marked line and accept the legal shapes below them.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <pthread.h>
#include <shared_mutex>
#include <thread>

namespace axml {

void* FixtureBody(void*) { return nullptr; }

int FixtureThreads() {
  std::thread worker([] {});                           // MUST be flagged
  std::jthread joined([] {});                          // MUST be flagged
  auto later = std::async([] { return 1; });           // MUST be flagged
  pthread_t handle;
  pthread_create(&handle, nullptr, FixtureBody, nullptr);  // MUST be flagged
  std::mutex mu;                                       // MUST be flagged
  std::shared_mutex shared;                            // MUST be flagged
  std::condition_variable cv;                          // MUST be flagged
  // Comment-only mentions of std::thread or std::mutex are not flagged.
  const char* text = "std::thread in a string is not flagged";
  std::atomic<int> level{0};  // the log level's atomic stays legal
  std::this_thread::sleep_for(std::chrono::milliseconds(0));  // legal
  // lint: allow-no-threads
  std::mutex waived;  // suppressed by the line above: NOT flagged
  worker.join();
  (void)text;
  return later.get() + level.load();
}

}  // namespace axml
