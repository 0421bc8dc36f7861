#include "heap_quarantine.h"

#include <cstddef>
#include <cstdlib>
#include <new>

#include "common/logging.h"

namespace axml::perfbench {
namespace {

// The held list grows with realloc, never with operator new, so that
// holding a block cannot recurse into operator delete. The benchmark
// runs on one thread; thread_local keeps any other thread out anyway.
thread_local bool g_active = false;
thread_local void** g_held = nullptr;
thread_local size_t g_count = 0;
thread_local size_t g_capacity = 0;

bool Hold(void* p) {
  if (!g_active || p == nullptr) return false;
  if (g_count == g_capacity) {
    const size_t cap = g_capacity == 0 ? 4096 : 2 * g_capacity;
    void* grown = std::realloc(g_held, cap * sizeof(void*));
    if (grown == nullptr) return false;  // free this one now instead
    g_held = static_cast<void**>(grown);
    g_capacity = cap;
  }
  g_held[g_count++] = p;
  return true;
}

void* Allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Release(void* p) noexcept {
  if (!Hold(p)) std::free(p);
}

}  // namespace

HeapQuarantine::HeapQuarantine() {
  AXML_CHECK(!g_active) << "HeapQuarantine scopes do not nest";
  g_active = true;
}

HeapQuarantine::~HeapQuarantine() {
  g_active = false;
  for (size_t i = 0; i < g_count; ++i) std::free(g_held[i]);
  g_count = 0;
}

}  // namespace axml::perfbench

// Replaced global allocation functions: plain malloc/free, except that a
// live HeapQuarantine holds what is deleted. The over-aligned forms keep
// the standard library's own aligned_alloc/free pair.
void* operator new(std::size_t n) { return axml::perfbench::Allocate(n); }
void* operator new[](std::size_t n) { return axml::perfbench::Allocate(n); }
void operator delete(void* p) noexcept { axml::perfbench::Release(p); }
void operator delete[](void* p) noexcept { axml::perfbench::Release(p); }
void operator delete(void* p, std::size_t) noexcept {
  axml::perfbench::Release(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  axml::perfbench::Release(p);
}
