#include "era/vertical_partitioner.h"

#include <algorithm>

#include "common/timer.h"
#include "io/string_reader.h"
#include "text/aho_corasick.h"

namespace era {

std::vector<VirtualTree> GroupPrefixes(std::vector<PrefixInfo> prefixes,
                                       uint64_t fm, bool enable_grouping) {
  std::vector<VirtualTree> groups;
  if (!enable_grouping) {
    for (auto& p : prefixes) {
      VirtualTree g;
      g.total_frequency = p.frequency;
      g.footprint_mask = p.footprint_mask;
      g.prefixes.push_back(std::move(p));
      groups.push_back(std::move(g));
    }
    return groups;
  }

  // Sort in descending frequency order; ties broken lexicographically so the
  // plan is deterministic.
  std::sort(prefixes.begin(), prefixes.end(),
            [](const PrefixInfo& a, const PrefixInfo& b) {
              if (a.frequency != b.frequency) return a.frequency > b.frequency;
              return a.prefix < b.prefix;
            });

  // First-fit from the head: take the most frequent remaining prefix, then
  // sweep the list adding every prefix that still fits (Algorithm
  // VerticalPartitioning, lines 13-22).
  std::vector<bool> used(prefixes.size(), false);
  for (std::size_t head = 0; head < prefixes.size(); ++head) {
    if (used[head]) continue;
    VirtualTree group;
    group.prefixes.push_back(prefixes[head]);
    group.total_frequency = prefixes[head].frequency;
    group.footprint_mask = prefixes[head].footprint_mask;
    used[head] = true;
    for (std::size_t i = head + 1; i < prefixes.size(); ++i) {
      if (used[i]) continue;
      if (group.total_frequency + prefixes[i].frequency <= fm) {
        group.prefixes.push_back(prefixes[i]);
        group.total_frequency += prefixes[i].frequency;
        group.footprint_mask |= prefixes[i].footprint_mask;
        used[i] = true;
      }
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

StatusOr<PartitionPlan> VerticalPartition(
    const TextInfo& text, const BuildOptions& options, uint64_t fm,
    const std::shared_ptr<TileCache>& tile_cache) {
  WallTimer timer;
  PartitionPlan plan;
  const Alphabet& alphabet = text.alphabet;
  const uint64_t n = text.length - 1;  // body length; terminal at index n

  StringReaderOptions reader_options;
  reader_options.buffer_bytes = options.input_buffer_bytes;
  reader_options.seek_optimization = false;  // counting reads everything
  reader_options.tile_cache = tile_cache;
  ERA_ASSIGN_OR_RETURN(auto reader,
                       OpenStringReader(options.GetEnv(), text.path,
                                        reader_options, &plan.io));

  // Bucket shift for the 64-slice footprint masks (see PrefixInfo): the
  // smallest power-of-two slice width that maps every position into
  // buckets 0..63.
  uint32_t footprint_shift = 0;
  while (((text.length - 1) >> footprint_shift) >= 64) ++footprint_shift;
  if (reader->size() != text.length) {
    return Status::InvalidArgument("text length does not match file size");
  }

  // The terminal-only suffix is always a direct trie leaf.
  plan.terminal_leaves.emplace_back("", n);

  // Working set P': prefixes of the current length still being refined.
  std::vector<std::string> working;
  for (int i = 0; i < alphabet.size(); ++i) {
    working.push_back(std::string(1, alphabet.Symbol(i)));
  }
  std::vector<PrefixInfo> accepted;
  std::vector<char> chunk(AhoCorasick::kScanChunk);

  while (!working.empty()) {
    ++plan.rounds;
    if (working[0].size() > n + 1) {
      return Status::OutOfBudget(
          "vertical partitioning exceeded text length; FM too small for a "
          "highly repetitive input");
    }
    ERA_ASSIGN_OR_RETURN(auto matcher, AhoCorasick::Build(working));
    std::vector<uint64_t> freq(working.size(), 0);
    std::vector<uint64_t> masks(working.size(), 0);
    ERA_RETURN_NOT_OK(matcher.ScanAll(
        reader.get(), chunk, [&](int32_t id, uint64_t pos) {
          ++freq[static_cast<std::size_t>(id)];
          masks[static_cast<std::size_t>(id)] |=
              uint64_t{1} << (pos >> footprint_shift);
        }));

    std::vector<std::string> next_working;
    for (std::size_t i = 0; i < working.size(); ++i) {
      const std::string& p = working[i];
      if (freq[i] == 0) continue;  // substring absent from S
      if (freq[i] <= fm) {
        accepted.push_back({p, freq[i], masks[i]});
        continue;
      }
      // Split: extend by every symbol; the occurrence followed by the
      // terminal (if any) becomes a direct trie leaf.
      for (int s = 0; s < alphabet.size(); ++s) {
        next_working.push_back(p + alphabet.Symbol(s));
      }
      if (p.size() > n) {
        // Defensive: n - p.size() below would wrap around. Under current
        // invariants this cannot fire — a prefix longer than the body has
        // freq 0 (patterns never contain the terminal) and was skipped
        // above — but the guard keeps the arithmetic safe if the scan or
        // terminal conventions ever change.
        continue;
      }
      uint64_t tail_pos = n - p.size();
      // p matches at tail_pos iff S ends with p right before the terminal.
      // The match set was counted above; re-checking via the text tail costs
      // one comparison against the in-buffer end of file.
      // (Read the tail directly — it is at most |p| bytes.)
      std::string tail(p.size(), '\0');
      uint32_t got = 0;
      ERA_RETURN_NOT_OK(reader->RandomFetch(
          tail_pos, static_cast<uint32_t>(p.size()),
          tail.data(), &got));
      if (got == p.size() && tail == p) {
        plan.terminal_leaves.emplace_back(p, tail_pos);
      }
    }
    working = std::move(next_working);
  }

  plan.groups =
      GroupPrefixes(std::move(accepted), fm, options.group_virtual_trees);
  plan.seconds = timer.Seconds();
  return plan;
}

}  // namespace era
