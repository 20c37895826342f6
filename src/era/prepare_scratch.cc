#include "era/prepare_scratch.h"

#include <algorithm>

namespace era {

void PrepareScratch::BeginRound(uint64_t total_active, uint32_t range,
                                uint32_t bits, uint64_t max_area) {
  // Packers OR codes into the slab, so the round's part starts zeroed.
  const uint64_t words = (total_active * range * bits + 63) / 64 + 1;
  Size(&windows, words);
  std::fill_n(windows.begin(), words, uint64_t{0});
  Size(&window_len, total_active);
  Size(&requests, std::min<uint64_t>(total_active, kFetchSlice));
  Size(&request_window, std::min<uint64_t>(total_active, kFetchSlice));
  Size(&sort_records, max_area);
  Size(&perm_l, max_area);
  Size(&perm_p, max_area);
  Size(&perm_compact, max_area);
  // Every area holds >= 2 slots, so one state can close at most
  // total_active / 2 + 1 new areas; reserving that bound keeps the run
  // scanner's push_backs allocation-free.
  if (area_tmp.capacity() < total_active / 2 + 1) {
    ++allocations_;
    area_tmp.reserve(total_active / 2 + 1);
  }
  area_tmp.clear();
}

void PrepareScratch::BeginScan(uint64_t max_straddlers) {
  if (straddlers.capacity() < max_straddlers) {
    ++allocations_;
    straddlers.reserve(max_straddlers);
  }
  straddlers.clear();
}

uint64_t PrepareScratch::MemoryBytes() const {
  auto bytes = [](const auto& vec) {
    return uint64_t{vec.capacity()} * sizeof(vec[0]);
  };
  return bytes(windows) + bytes(window_len) + bytes(requests) +
         bytes(request_window) + bytes(sort_records) + bytes(perm_l) +
         bytes(perm_p) + bytes(perm_compact) + bytes(area_tmp) +
         bytes(cursor_rank) + bytes(straddlers);
}

}  // namespace era
