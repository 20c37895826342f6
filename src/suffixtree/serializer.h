// Sub-tree persistence: a fixed 32-byte header (magic, version, prefix
// length, node count, CRC-32C) + the S-prefix + the format-v4 payload (see
// suffixtree/compressed_tree.h): leaf and internal records bit-packed apart,
// each width-minimal, plus a delta/varint leaf stream. Every builder writes
// it.
//
// Version 4 is the only version read. Files whose header says version 1
// (the linked TreeNode array), 2 (a 32-byte array of contiguous-child-block
// records) or 3 (one fixed-width record per node) fail to read with
// NotSupported: rebuild the index.
//
// ReadServedSubTree is the serving path (the payload stays compressed);
// ReadSubTree inflates to the linked form for consumers that operate on it
// (TRELLIS merge, tests).

#ifndef ERA_SUFFIXTREE_SERIALIZER_H_
#define ERA_SUFFIXTREE_SERIALIZER_H_

#include <string>

#include "common/status.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "suffixtree/compressed_tree.h"
#include "suffixtree/tree_buffer.h"

namespace era {

/// Writes `tree` for S-prefix `prefix` to `path`, bit-packed straight from
/// the linked form by ServedSubTree::EncodePayload, which also rejects a
/// `tree` that is not a tree rooted at node 0 (no file is left then). The
/// file is published atomically and durably (temp + Sync + rename): a crash
/// mid-write never leaves a readable torn file at `path`. Billed to `stats`
/// if given. `file_crc` (optional) receives the CRC-32C of the complete file
/// as written — the checksum the build checkpoint records.
Status WriteSubTree(Env* env, const std::string& path,
                    const std::string& prefix, const TreeBuffer& tree,
                    IoStats* stats, uint32_t* file_crc = nullptr);

/// Reads a sub-tree into the serving form TreeIndex caches: the payload
/// stays compressed (no TreeNode inflation — the cache charges the packed
/// size) and is fully structure-validated before any query walks it.
/// Verifies magic, version and CRC. Reads the file with one device
/// request. `prefix_out` may be nullptr.
Status ReadServedSubTree(Env* env, const std::string& path,
                         ServedSubTree* tree, std::string* prefix_out,
                         IoStats* stats);

/// Reads a sub-tree into the linked form (ReadServedSubTree, then inflate).
Status ReadSubTree(Env* env, const std::string& path, TreeBuffer* tree,
                   std::string* prefix_out, IoStats* stats);

/// Cheap per-file facts for `era_cli inspect` and the bench: header fields
/// plus the sizes needed to compute compression ratios. Reads the file
/// header, the prefix and the packed header only (no payload decode).
struct SubTreeFileInfo {
  uint64_t node_count = 0;
  std::string prefix;
  uint64_t file_bytes = 0;      // total on-disk size
  uint64_t payload_bytes = 0;   // file minus header and prefix
  uint64_t serving_bytes = 0;   // resident size when cached (blob + ranks)
  uint64_t inflated_bytes = 0;  // node_count * sizeof(TreeNode)
  uint64_t internal_record_bytes = 0;  // packed internal-node records
  uint64_t leaf_record_bytes = 0;      // packed leaf records
};

StatusOr<SubTreeFileInfo> InspectSubTreeFile(Env* env, const std::string& path);

}  // namespace era

#endif  // ERA_SUFFIXTREE_SERIALIZER_H_
