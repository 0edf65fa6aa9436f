// Counting global operator new/delete, linked only into the benchmark.
//
// Every thread takes one slot of a fixed table on its first counted
// allocation and bumps it with relaxed atomics, so counting costs no shared
// cache line. Nothing is counted outside alloc::start()/alloc::stop().
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "common.h"

namespace perfbench::alloc {
namespace {

constexpr int kSlots = 512;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
std::atomic<bool> g_counting{false};
thread_local int t_slot = -1;
thread_local bool t_excluded = false;

void note() {
  if (!g_counting.load(std::memory_order_relaxed) || t_excluded) return;
  if (t_slot < 0) {
    // Threads past the table share the last slot (still exact, only slower).
    t_slot = std::min(g_next_slot.fetch_add(1, std::memory_order_relaxed),
                      kSlots - 1);
  }
  g_slots[t_slot].count.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  note();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  note();
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

Exclude::Exclude() { t_excluded = true; }
Exclude::~Exclude() { t_excluded = false; }

void start() { g_counting.store(true, std::memory_order_relaxed); }
void stop() { g_counting.store(false, std::memory_order_relaxed); }

std::uint64_t count() {
  std::uint64_t total = 0;
  for (const Slot& s : g_slots) total += s.count.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench::alloc

using perfbench::alloc::allocate;
using perfbench::alloc::allocate_aligned;

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
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
