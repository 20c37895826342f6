#include "trellis/trellis.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/timer.h"
#include "era/build_subtree.h"
#include "era/memory_layout.h"
#include "era/vertical_partitioner.h"
#include "sa/lcp.h"
#include "suffixtree/serializer.h"

namespace era {

namespace {

/// A position inside a source tree during merging: `node`'s incoming edge
/// with `consumed` symbols of its label already matched.
struct Cursor {
  const TreeBuffer* tree;
  uint32_t node;
  uint32_t consumed;
};

/// Recursively copies the subtree under `cursor` into `out` beneath
/// `out_parent`, trimming `consumed` symbols off the top edge. Children are
/// already sorted in the source. First symbols are re-read from the
/// in-memory `text`, so sources need not carry them. Returns the new node id.
uint32_t CopySubTree(TreeBuffer* out, const Cursor& cursor,
                     const std::string& text) {
  struct Item {
    uint32_t src;
    uint32_t dst;
  };
  const TreeBuffer& src_tree = *cursor.tree;
  uint32_t top = out->AddNode();
  {
    const TreeNode& src = src_tree.node(cursor.node);
    TreeNode& dst = out->node(top);
    dst.edge_start = src.edge_start + cursor.consumed;
    dst.edge_len = src.edge_len - cursor.consumed;
    dst.first_symbol = static_cast<uint8_t>(text[dst.edge_start]);
    dst.leaf_id = src.leaf_id;
  }
  std::vector<Item> stack{{cursor.node, top}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    uint32_t prev_dst = kNilNode;
    for (uint32_t c = src_tree.node(item.src).first_child; c != kNilNode;
         c = src_tree.node(c).next_sibling) {
      uint32_t fresh = out->AddNode();
      const TreeNode& src = src_tree.node(c);
      TreeNode& dst = out->node(fresh);
      dst.edge_start = src.edge_start;
      dst.edge_len = src.edge_len;
      dst.first_symbol = static_cast<uint8_t>(text[dst.edge_start]);
      dst.leaf_id = src.leaf_id;
      if (prev_dst == kNilNode) {
        out->node(item.dst).first_child = fresh;
      } else {
        out->node(prev_dst).next_sibling = fresh;
      }
      prev_dst = fresh;
      stack.push_back({c, fresh});
    }
  }
  return top;
}

/// Merges the children represented by `cursors` (all at the same path
/// depth) under `out_parent`.
Status MergeChildren(TreeBuffer* out, uint32_t out_parent,
                     std::vector<Cursor> cursors, const std::string& text) {
  // Expand cursors that sit exactly at a node boundary into that node's
  // children; cursors mid-edge represent a pending child themselves.
  std::vector<Cursor> pending;
  for (const Cursor& cursor : cursors) {
    const TreeNode& node = cursor.tree->node(cursor.node);
    if (cursor.consumed == node.edge_len) {
      for (uint32_t c = node.first_child; c != kNilNode;
           c = cursor.tree->node(c).next_sibling) {
        pending.push_back({cursor.tree, c, 0});
      }
    } else {
      pending.push_back(cursor);
    }
  }

  // Group by the next symbol.
  auto next_symbol = [&](const Cursor& cursor) {
    const TreeNode& node = cursor.tree->node(cursor.node);
    return text[node.edge_start + cursor.consumed];
  };
  std::stable_sort(pending.begin(), pending.end(),
                   [&](const Cursor& a, const Cursor& b) {
                     return next_symbol(a) < next_symbol(b);
                   });

  uint32_t prev_child = kNilNode;
  std::size_t g = 0;
  while (g < pending.size()) {
    char symbol = next_symbol(pending[g]);
    std::size_t h = g;
    while (h < pending.size() && next_symbol(pending[h]) == symbol) ++h;

    uint32_t fresh;
    if (h - g == 1) {
      // Only one source continues with this symbol: verbatim copy.
      fresh = CopySubTree(out, pending[g], text);
    } else {
      // Advance all members while their labels agree.
      std::vector<Cursor> members(pending.begin() + g, pending.begin() + h);
      const Cursor& head = members[0];
      uint64_t label_start =
          head.tree->node(head.node).edge_start + head.consumed;
      uint32_t advance = 0;
      bool diverged = false;
      while (!diverged) {
        // Has any member exhausted its edge label?
        for (Cursor& m : members) {
          const TreeNode& node = m.tree->node(m.node);
          if (m.consumed + advance == node.edge_len) {
            diverged = true;  // boundary: stop advancing here
            break;
          }
        }
        if (diverged) break;
        char want =
            text[head.tree->node(head.node).edge_start + head.consumed +
                 advance];
        for (Cursor& m : members) {
          const TreeNode& node = m.tree->node(m.node);
          if (text[node.edge_start + m.consumed + advance] != want) {
            diverged = true;
            break;
          }
        }
        if (!diverged) ++advance;
      }
      if (advance == 0) {
        return Status::Internal(
            "merge group shares no label symbols despite equal heads");
      }
      fresh = out->AddNode();
      TreeNode& fresh_node = out->node(fresh);
      fresh_node.edge_start = label_start;
      fresh_node.edge_len = advance;
      fresh_node.first_symbol = static_cast<uint8_t>(symbol);
      for (Cursor& m : members) m.consumed += advance;
      ERA_RETURN_NOT_OK(MergeChildren(out, fresh, std::move(members), text));
    }
    if (prev_child == kNilNode) {
      out->node(out_parent).first_child = fresh;
    } else {
      out->node(prev_child).next_sibling = fresh;
    }
    prev_child = fresh;
    g = h;
  }
  return Status::OK();
}

}  // namespace

StatusOr<TreeBuffer> MergeSubTrees(const std::vector<const TreeBuffer*>& trees,
                                   const std::string& text) {
  TreeBuffer out;
  std::vector<Cursor> cursors;
  for (const TreeBuffer* tree : trees) {
    cursors.push_back({tree, 0, 0});
  }
  ERA_RETURN_NOT_OK(MergeChildren(&out, 0, std::move(cursors), text));
  return out;
}

StatusOr<BuildResult> TrellisBuilder::Build(const TextInfo& text) {
  WallTimer total_timer;
  ERA_RETURN_NOT_OK(ValidateBuildOptions(options_));
  Env* env = options_.GetEnv();
  ERA_RETURN_NOT_OK(env->CreateDir(options_.work_dir));

  BuildStats stats;

  // TRELLIS keeps S in memory (bit-packed). If it does not fit in half the
  // budget, the configuration is out of the algorithm's regime.
  int bits = text.alphabet.bits_per_symbol();
  uint64_t packed_bytes = (text.length * bits + 7) / 8;
  if (packed_bytes > options_.memory_budget / 2) {
    return Status::NotSupported(
        "TRELLIS requires the input string in memory (" +
        std::to_string(packed_bytes) + " bytes packed > half of budget)");
  }

  IoStats load_io;
  std::string packed_text;
  {
    StringReaderOptions reader_options;
    reader_options.buffer_bytes = options_.input_buffer_bytes;
    ERA_ASSIGN_OR_RETURN(
        auto reader,
        OpenStringReader(env, text.path, reader_options, &load_io));
    reader->BeginScan();
    packed_text.resize(text.length);
    uint32_t got = 0;
    uint64_t pos = 0;
    while (pos < text.length) {
      uint32_t want = static_cast<uint32_t>(
          std::min<uint64_t>(1 << 20, text.length - pos));
      ERA_RETURN_NOT_OK(
          reader->Fetch(pos, want, packed_text.data() + pos, &got));
      if (got == 0) break;
      pos += got;
    }
    if (pos != text.length) return Status::IOError("short read of text");
  }
  stats.io.Add(load_io);
  // For accounting we treat the resident string at its packed size; the
  // byte string here is an implementation convenience of the testbed.
  const std::string& s = packed_text;
  const uint64_t n = text.length;

  // TRELLIS never opens a build TileCache (its merge phase is semi-disk-
  // based random access); plan without the carve so R is not shrunk for a
  // cache that would go unused.
  BuildOptions plan_options = options_;
  plan_options.tile_cache = false;
  ERA_ASSIGN_OR_RETURN(MemoryLayout layout,
                       PlanMemory(plan_options, text.alphabet.size()));
  stats.fm = layout.fm;
  stats.text_bytes = text.length;

  // Global prefix set (computed in memory; TRELLIS derives its prefixes in
  // a preprocessing pass).
  WallTimer vertical_timer;
  ERA_ASSIGN_OR_RETURN(PartitionPlan plan,
                       VerticalPartition(text, options_, layout.fm));
  stats.vertical_seconds = vertical_timer.Seconds();
  stats.io.Add(plan.io);

  // Flatten groups: TRELLIS merges per prefix, grouping is ERA's trick.
  std::vector<PrefixInfo> prefixes;
  for (const auto& group : plan.groups) {
    for (const auto& p : group.prefixes) prefixes.push_back(p);
  }
  std::sort(prefixes.begin(), prefixes.end(),
            [](const PrefixInfo& a, const PrefixInfo& b) {
              return a.prefix < b.prefix;
            });
  stats.num_groups = prefixes.size();
  stats.num_subtrees = prefixes.size();

  // ---- Phase 1: per-segment sub-trees split by prefix, spilled to disk.
  const uint64_t segment_len =
      std::max<uint64_t>(1024, layout.fm);  // suffixes starting per segment
  const uint64_t num_segments = (n + segment_len - 1) / segment_len;
  IoStats spill_io;

  // (prefix index, segment) -> filename.
  std::map<std::pair<std::size_t, uint64_t>, std::string> spills;
  for (uint64_t seg = 0; seg < num_segments; ++seg) {
    uint64_t begin = seg * segment_len;
    uint64_t end = std::min(n, begin + segment_len);

    // Sort the segment's suffixes (in-memory comparisons against S).
    std::vector<uint64_t> suffixes(end - begin);
    std::iota(suffixes.begin(), suffixes.end(), begin);
    std::sort(suffixes.begin(), suffixes.end(), [&](uint64_t a, uint64_t b) {
      return s.compare(a, std::string::npos, s, b, std::string::npos) < 0;
    });

    // Distribute by prefix (binary search over the sorted prefix set) and
    // build one sub-tree per non-empty prefix bucket with the shared stack
    // construction.
    std::size_t p = 0;
    std::size_t i = 0;
    while (i < suffixes.size()) {
      // Find the prefix bucket for suffixes[i]; suffixes without a bucket
      // are the direct trie leaves (p + terminal) handled by the plan.
      while (p < prefixes.size() &&
             s.compare(suffixes[i], prefixes[p].prefix.size(),
                       prefixes[p].prefix) > 0) {
        ++p;
      }
      if (p == prefixes.size() ||
          s.compare(suffixes[i], prefixes[p].prefix.size(),
                    prefixes[p].prefix) != 0) {
        ++i;  // terminal leaf (covered via the plan) or gap
        continue;
      }
      PreparedSubTree prepared;
      prepared.prefix = prefixes[p].prefix;
      prepared.branches.push_back({0, 0, 0, true});
      prepared.leaves.push_back(suffixes[i]);
      std::size_t j = i + 1;
      while (j < suffixes.size() &&
             s.compare(suffixes[j], prefixes[p].prefix.size(),
                       prefixes[p].prefix) == 0) {
        BranchInfo branch;
        branch.offset = LcpOfSuffixes(s, suffixes[j - 1], suffixes[j]);
        branch.c1 = s[suffixes[j - 1] + branch.offset];
        branch.c2 = s[suffixes[j] + branch.offset];
        branch.defined = true;
        prepared.branches.push_back(branch);
        prepared.leaves.push_back(suffixes[j]);
        ++j;
      }
      ERA_ASSIGN_OR_RETURN(TreeBuffer tree, BuildSubTree(prepared, n));
      std::string filename = "seg_" + std::to_string(seg) + "_p" +
                             std::to_string(p) + ".bin";
      ERA_RETURN_NOT_OK(WriteSubTree(env, options_.work_dir + "/" + filename,
                                     prepared.prefix, tree, &spill_io));
      spills[{p, seg}] = filename;
      i = j;
    }
  }
  stats.io.Add(spill_io);

  // ---- Phase 2: per-prefix merge of segment sub-trees (random disk I/O).
  WallTimer merge_timer;
  IoStats merge_io;
  std::vector<GroupOutput> outputs(prefixes.size());
  for (std::size_t p = 0; p < prefixes.size(); ++p) {
    std::vector<TreeBuffer> loaded;
    for (uint64_t seg = 0; seg < num_segments; ++seg) {
      auto it = spills.find({p, seg});
      if (it == spills.end()) continue;
      TreeBuffer tree;
      ERA_RETURN_NOT_OK(ReadSubTree(env, options_.work_dir + "/" + it->second,
                                    &tree, nullptr, &merge_io));
      loaded.push_back(std::move(tree));
    }
    if (loaded.empty()) {
      return Status::Internal("prefix with no segment sub-trees: " +
                              prefixes[p].prefix);
    }
    std::vector<const TreeBuffer*> pointers;
    for (const TreeBuffer& t : loaded) pointers.push_back(&t);
    ERA_ASSIGN_OR_RETURN(TreeBuffer merged, MergeSubTrees(pointers, s));

    uint64_t group_bytes = merged.MemoryBytes();
    for (const TreeBuffer& t : loaded) group_bytes += t.MemoryBytes();
    stats.peak_tree_bytes = std::max(stats.peak_tree_bytes, group_bytes);

    std::string filename = "st_" + std::to_string(p) + "_0.bin";
    ERA_RETURN_NOT_OK(WriteSubTree(env, options_.work_dir + "/" + filename,
                                   prefixes[p].prefix, merged,
                                   &outputs[p].write_io));
    outputs[p].subtrees.push_back(
        {prefixes[p].prefix, prefixes[p].frequency, filename});
    stats.io.Add(outputs[p].write_io);

    // Drop the spills for this prefix.
    for (uint64_t seg = 0; seg < num_segments; ++seg) {
      auto it = spills.find({p, seg});
      if (it != spills.end()) {
        ERA_RETURN_NOT_OK(env->DeleteFile(options_.work_dir + "/" +
                                          it->second));
      }
    }
  }
  stats.io.Add(merge_io);
  stats.horizontal_seconds = merge_timer.Seconds();

  BuildResult result;
  ERA_ASSIGN_OR_RETURN(result.index,
                       AssembleIndex(text, options_, plan, outputs));
  stats.total_seconds = total_timer.Seconds();
  result.stats = stats;
  return result;
}

}  // namespace era
