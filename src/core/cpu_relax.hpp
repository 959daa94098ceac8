// CPU relax hint for bounded spin-waits.
//
// A spin that re-checks a lock or a flag tells the core it is spinning:
// on x86 `pause` stalls the loop briefly, yields the pipeline to a
// hyper-threaded sibling and avoids the memory-order flush when the
// awaited line finally changes; on aarch64 `yield` is the same hint.
// Elsewhere the helper is a no-op, so a spin there only re-checks.
// Used by the ranked mutex's contended path and the thread pool's
// pre-park poll; each bounds its spin with a constant.
#pragma once

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hotc {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace hotc
