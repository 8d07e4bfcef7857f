// Buffers that are refilled every epoch.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace spire {

/// Keeps a buffer that is refilled every epoch sized to what an epoch
/// needs: when `needed` elements use under a quarter of its capacity, the
/// storage is replaced by one reserved at twice the need (the contents are
/// kept), so one burst — or a complete pass between partial ones — does not
/// stay resident. Steady fills reuse the storage untouched.
template <typename T>
void TrimScratch(std::vector<T>* buffer, std::size_t needed) {
  needed = std::max<std::size_t>(needed, 16);
  if (buffer->capacity() <= 4 * needed) return;
  std::vector<T> trimmed;
  trimmed.reserve(std::max(2 * needed, buffer->size()));
  trimmed.assign(buffer->begin(), buffer->end());
  buffer->swap(trimmed);
}

}  // namespace spire
