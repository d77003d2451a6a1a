#ifndef MV3C_COMMON_PREFETCH_H_
#define MV3C_COMMON_PREFETCH_H_

#include <cstddef>
#include <cstdint>

#include "common/macros.h"

namespace mv3c {

/// Asks the CPU to start loading every cache line of [addr, addr + bytes)
/// for reading. A hint only: it reads nothing, so the address may be stale
/// or unmapped (a prefetch never faults), and the caller's later real
/// accesses still decide every result. The address is taken as an integer
/// so a hint computed from a stale base is not pointer arithmetic.
inline void PrefetchBytes(uintptr_t addr, size_t bytes) {
  const uintptr_t line = MV3C_CACHELINE_SIZE;
  const uintptr_t end = addr + bytes;
  for (uintptr_t a = addr & ~(line - 1); a < end; a += line) {
    __builtin_prefetch(reinterpret_cast<const void*>(a), 0, 3);
  }
}

inline void PrefetchBytes(const void* p, size_t bytes) {
  PrefetchBytes(reinterpret_cast<uintptr_t>(p), bytes);
}

}  // namespace mv3c

#endif  // MV3C_COMMON_PREFETCH_H_
