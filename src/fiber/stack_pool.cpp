#include "fiber/stack_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"

namespace xp::fiber {

namespace {

constexpr std::size_t kMaxFreePerSize = 32;  // free stacks kept per size

// Beyond this many live stacks, new stacks come from SLABS: one mapping
// holding kSlabStacks stacks with no interior guard pages.  A guarded
// stack costs ~2 kernel vmas (the PROT_NONE guard splits its mapping), so
// 10^5 concurrent fibers — the hybrid simulator's huge-n measurements —
// would blow through vm.max_map_count (65530 by default) long before
// memory runs out.  Slabs trade the guard page for a ~128x smaller vma
// footprint; the threshold keeps every normal workload on guarded stacks.
constexpr std::size_t kGuardedStackLimit = 16384;
constexpr std::size_t kSlabStacks = 64;

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

struct Pool {
  std::mutex mu;
  // Free stacks keyed by USABLE bytes, so guarded and slab-backed stacks
  // of one size class share a free list (their map_bytes differ by the
  // guard page).
  std::unordered_map<std::size_t, std::vector<StackSpan>> free_by_size;
  StackPoolStats stats;

  ~Pool() {
    for (auto& [bytes, spans] : free_by_size)
      for (StackSpan& s : spans) ::munmap(s.map_base, s.map_bytes);
  }
};

Pool& pool() {
  static Pool p;  // leaked-on-exit order is fine; dtor unmaps free stacks
  return p;
}

// A stack at the high end of [base, base + map_bytes) with `usable` bytes.
StackSpan span_at(void* base, std::size_t map_bytes, std::size_t usable) {
  StackSpan s;
  s.map_base = base;
  s.map_bytes = map_bytes;
  s.top = static_cast<char*>(base) + map_bytes;
  s.usable = usable;
  return s;
}

}  // namespace

StackSpan stack_acquire(std::size_t usable_bytes) {
  XP_REQUIRE(usable_bytes > 0, "stack_acquire: zero-sized stack");
  const std::size_t ps = page_size();
  const std::size_t usable = ((usable_bytes + ps - 1) / ps) * ps;

  Pool& p = pool();
  bool slab = false;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    auto& spans = p.free_by_size[usable];
    if (!spans.empty()) {
      const StackSpan s = spans.back();
      spans.pop_back();
      ++p.stats.reused;
      ++p.stats.active;
      return s;
    }
    slab = p.stats.active >= kGuardedStackLimit;
  }

  if (slab) {
    // Slab path (see kGuardedStackLimit): one vma for kSlabStacks stacks.
    // No interior guards — an overflow runs into the neighboring fiber's
    // stack instead of faulting, the price of 10^5-fiber measurements.
    // The spare stacks go into the free list past its per-size cap; the
    // cap applies again as they are released.
    char* base = static_cast<char*>(
        ::mmap(nullptr, usable * kSlabStacks, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
    XP_CHECK(base != MAP_FAILED, "mmap of fiber stack slab failed");
    std::lock_guard<std::mutex> lock(p.mu);
    auto& spans = p.free_by_size[usable];
    for (std::size_t i = 1; i < kSlabStacks; ++i)
      spans.push_back(span_at(base + i * usable, usable, usable));
    p.stats.mapped += kSlabStacks;
    ++p.stats.active;
    return span_at(base, usable, usable);
  }

  const std::size_t map_bytes = usable + ps;  // + guard page
  void* base = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  XP_CHECK(base != MAP_FAILED, "mmap of fiber stack failed");
  XP_CHECK(::mprotect(base, ps, PROT_NONE) == 0,
           "mprotect of fiber stack guard page failed");
  std::lock_guard<std::mutex> lock(p.mu);
  ++p.stats.mapped;
  ++p.stats.active;
  return span_at(base, map_bytes, usable);
}

void stack_release(StackSpan s) {
  if (!s) return;
  Pool& p = pool();
  {
    std::lock_guard<std::mutex> lock(p.mu);
    --p.stats.active;
    auto& spans = p.free_by_size[s.usable];
    if (spans.size() < kMaxFreePerSize) {
      spans.push_back(s);
      return;
    }
    ++p.stats.unmapped;
  }
  ::munmap(s.map_base, s.map_bytes);
}

StackPoolStats stack_pool_stats() {
  Pool& p = pool();
  std::lock_guard<std::mutex> lock(p.mu);
  return p.stats;
}

void stack_pool_trim() {
  Pool& p = pool();
  std::unordered_map<std::size_t, std::vector<StackSpan>> drop;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    drop.swap(p.free_by_size);
    for (const auto& [bytes, spans] : drop) p.stats.unmapped += spans.size();
  }
  for (const auto& [bytes, spans] : drop)
    for (const StackSpan& s : spans) ::munmap(s.map_base, s.map_bytes);
}

}  // namespace xp::fiber
