#include "common/zero_page_array.h"

#include <sys/mman.h>

#include <limits>
#include <new>

namespace adapt::detail {

void* map_zero_pages(std::size_t count, std::size_t elem_bytes) {
  if (count == 0) return nullptr;
  if (count > std::numeric_limits<std::size_t>::max() / elem_bytes) {
    throw std::bad_alloc();
  }
  void* data = ::mmap(nullptr, count * elem_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) throw std::bad_alloc();
  return data;
}

void unmap_zero_pages(void* data, std::size_t bytes) noexcept {
  if (data != nullptr) ::munmap(data, bytes);
}

}  // namespace adapt::detail
