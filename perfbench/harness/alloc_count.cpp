// Global allocation counting for the traced run's heap-per-job figures.
//
// The replacement operator new forwards to malloc; counting is off except
// during the traced phase, and a thread may pause it for allocations that
// belong to the load generator rather than the system under test.
//
// The replacements route through malloc/free, which GCC's inliner misreads
// as new/free mismatches at use sites — a false positive for replaced
// global allocators, silenced file-wide.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

// One counter slot per thread, each on its own cache line, so counting
// adds no contention between the threads it observes. Threads past the
// last slot share it (still exact: the adds are atomic).
struct alignas(64) Slot {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> bytes{0};
};
constexpr std::size_t kSlots = 64;
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
std::atomic<bool> g_counting{false};
thread_local Slot* t_slot = nullptr;
thread_local bool t_paused = false;

void count(std::size_t size) {
  if (!g_counting.load(std::memory_order_relaxed) || t_paused) {
    return;
  }
  if (t_slot == nullptr) {
    const std::size_t i = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_slot = &g_slots[i < kSlots ? i : kSlots - 1];
  }
  t_slot->calls.fetch_add(1, std::memory_order_relaxed);
  t_slot->bytes.fetch_add(size, std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count(size);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts alloc_counts() {
  AllocCounts total;
  for (const Slot& slot : g_slots) {
    total.calls += slot.calls.load(std::memory_order_relaxed);
    total.bytes += slot.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

AllocPause::AllocPause() : previous_(t_paused) { t_paused = true; }
AllocPause::~AllocPause() { t_paused = previous_; }

}  // namespace perfbench

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count(size);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
