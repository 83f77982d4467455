#include "fiber/context.hpp"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/error.hpp"

namespace xp::fiber {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::Auto:
      return "auto";
    case Backend::Fcontext:
      return "fcontext";
    case Backend::Ucontext:
      return "ucontext";
  }
  return "?";
}

namespace {

constexpr Backend build_default() {
  return fcontext_supported() ? Backend::Fcontext : Backend::Ucontext;
}

std::atomic<Backend> g_default{build_default()};

}  // namespace

Backend default_backend() { return g_default.load(std::memory_order_relaxed); }

void set_default_backend(Backend b) {
  if (b == Backend::Auto) b = build_default();
  if (b == Backend::Fcontext)
    XP_REQUIRE(fcontext_supported(),
               "fcontext backend has no port for this target");
  g_default.store(b, std::memory_order_relaxed);
}

Backend resolve_backend(Backend b) {
  if (b == Backend::Auto) return default_backend();
  if (b == Backend::Fcontext)
    XP_REQUIRE(fcontext_supported(),
               "fcontext backend has no port for this target");
  return b;
}

}  // namespace xp::fiber

// The guard slot of a fresh frame: reached only if a fiber entry function
// returns instead of switching away, which would otherwise run off into
// whatever bytes sit above the fabricated frame.
extern "C" [[noreturn]] void xp_fcontext_unreachable() {
  std::fputs("xp::fiber: fiber entry function returned (corrupt context)\n",
             stderr);
  std::abort();
}

namespace xp::fiber {

#if defined(__x86_64__) && defined(__ELF__)

void* make_fcontext_frame(void* stack_top, void (*entry)()) {
  // Layout must mirror the restore side of xp_fcontext_swap (fcontext.S):
  //   f[0] mxcsr | x87 cw   f[4] r12   f[7] return address -> entry
  //   f[1] r15              f[5] rbx   f[8] entry's caller -> abort guard
  //   f[2] r14              f[6] rbp
  //   f[3] r13
  // The frame sits 72 bytes under the 16-aligned stack top so that `entry`
  // begins with rsp % 16 == 8, exactly as if it had been `call`ed.
  const auto top =
      reinterpret_cast<std::uintptr_t>(stack_top) & ~std::uintptr_t{15};
  auto* f = reinterpret_cast<std::uint64_t*>(top - 72);
  std::uint32_t mxcsr;
  std::uint16_t fcw;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  std::memset(f, 0, 72);
  std::memcpy(f, &mxcsr, sizeof(mxcsr));
  std::memcpy(reinterpret_cast<char*>(f) + 4, &fcw, sizeof(fcw));
  f[7] = reinterpret_cast<std::uint64_t>(entry);
  f[8] = reinterpret_cast<std::uint64_t>(&xp_fcontext_unreachable);
  return f;
}

#elif defined(__aarch64__) && defined(__ELF__)

void* make_fcontext_frame(void* stack_top, void (*entry)()) {
  // 160-byte frame mirroring fcontext.S; x30 (slot 11) carries the entry
  // point that the restore-side `ret` branches to, x29 = 0 terminates the
  // frame-pointer chain for unwinders.
  const auto top =
      reinterpret_cast<std::uintptr_t>(stack_top) & ~std::uintptr_t{15};
  auto* f = reinterpret_cast<std::uint64_t*>(top - 160);
  std::memset(f, 0, 160);
  f[11] = reinterpret_cast<std::uint64_t>(entry);
  return f;
}

#else

void* make_fcontext_frame(void*, void (*)()) {
  throw util::Error("fcontext backend has no port for this target");
}

#endif

}  // namespace xp::fiber
