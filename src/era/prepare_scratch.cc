#include "era/prepare_scratch.h"

#include <algorithm>

namespace era {

void PrepareScratch::BeginRound(uint64_t total_active, uint32_t range,
                                uint64_t max_area) {
  Size(&windows, total_active * range);
  Size(&window_len, total_active);
  Size(&requests, std::min<uint64_t>(total_active, kFetchSlice));
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
  Size(&scan_chunk, AhoCorasick::kScanChunk);
  if (straddlers.capacity() < max_straddlers) {
    ++allocations_;
    straddlers.reserve(max_straddlers);
  }
  straddlers.clear();
}

}  // namespace era
