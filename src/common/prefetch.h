// Software prefetch: starts fetching a cache line ahead of the load or
// store that needs it. A hint only, with no architectural effect, so code
// that prefetches computes exactly what it would compute without.
#pragma once

namespace adapt {

/// Hints that `*p` is about to be read and written.
inline void prefetch_for_write(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1);
#else
  (void)p;
#endif
}

}  // namespace adapt
