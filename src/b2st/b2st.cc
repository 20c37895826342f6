#include "b2st/b2st.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/timer.h"
#include "era/build_subtree.h"
#include "era/memory_layout.h"
#include "io/string_reader.h"
#include "sa/sais.h"
#include "suffixtree/serializer.h"

namespace era {

namespace {

/// Look-ahead context appended to each partition before building its local
/// suffix array.
constexpr uint64_t kContextBytes = 1024;

/// Comparison key stored with every temp-file entry — the stand-in for
/// B2ST's pairwise order arrays: order information precomputed in phase 1 so
/// the merge reads temp files sequentially instead of seeking in S. Ties
/// beyond the key (rare outside long repeats) fall back to a disk
/// comparison.
constexpr uint32_t kKeyBytes = 32;

/// Temp-file entry: global position + key length + fixed-width key.
struct SaEntry {
  uint64_t position;
  uint32_t key_len;
  char key[kKeyBytes];
};
static_assert(sizeof(SaEntry) == 48, "entry layout is serialized verbatim");

/// Where two suffixes first differ: the order, the LCP, and the two
/// symbols at that depth (the B entry's c1/c2 when the pair is adjacent).
struct Mismatch {
  bool a_less = false;
  uint64_t lcp = 0;
  char a_symbol = 0;
  char b_symbol = 0;
};

/// Streams the suffixes at `a` and `b` from `offset` onward until they
/// differ. Distinct suffixes always differ before either ends (unique
/// terminal).
Status StreamedCompare(StringReader* reader_a, StringReader* reader_b,
                       uint64_t a, uint64_t b, uint64_t offset,
                       Mismatch* out) {
  char buf_a[256];
  char buf_b[256];
  while (true) {
    uint32_t got_a = 0;
    uint32_t got_b = 0;
    ERA_RETURN_NOT_OK(
        reader_a->RandomFetch(a + offset, sizeof(buf_a), buf_a, &got_a));
    ERA_RETURN_NOT_OK(
        reader_b->RandomFetch(b + offset, sizeof(buf_b), buf_b, &got_b));
    uint32_t m = std::min(got_a, got_b);
    for (uint32_t i = 0; i < m; ++i) {
      if (buf_a[i] != buf_b[i]) {
        out->a_less = buf_a[i] < buf_b[i];
        out->lcp = offset + i;
        out->a_symbol = buf_a[i];
        out->b_symbol = buf_b[i];
        return Status::OK();
      }
    }
    if (m == 0 || got_a != got_b) {
      return Status::Internal("suffix comparison ran past the terminal");
    }
    offset += m;
  }
}

/// Buffered sequential reader over one partition's temp file. After Open(),
/// head() is valid while has_head(); Pop() consumes it and loads the next.
class EntryStream {
 public:
  Status Open(Env* env, const std::string& path, IoStats* io) {
    io_ = io;
    ERA_ASSIGN_OR_RETURN(file_, env->OpenRandomAccess(path));
    count_ = file_->Size() / sizeof(SaEntry);
    return Pop();
  }

  bool has_head() const { return has_head_; }
  const SaEntry& head() const { return head_; }

  /// Consumes the current head and loads the next entry if any.
  Status Pop() {
    if (cursor_ >= count_) {
      has_head_ = false;
      return Status::OK();
    }
    if (buffer_pos_ >= buffer_.size()) {
      std::size_t want =
          std::min<std::size_t>(kBlockEntries, count_ - cursor_);
      buffer_.resize(want);
      std::size_t got = 0;
      ERA_RETURN_NOT_OK(file_->Read(
          cursor_ * sizeof(SaEntry), want * sizeof(SaEntry),
          reinterpret_cast<char*>(buffer_.data()), &got));
      if (got != want * sizeof(SaEntry)) {
        return Status::Corruption("truncated partition temp file");
      }
      if (io_ != nullptr) {
        io_->bytes_read += got;
        ++io_->seeks;  // switching between k interleaved streams
      }
      buffer_pos_ = 0;
    }
    head_ = buffer_[buffer_pos_++];
    ++cursor_;
    has_head_ = true;
    return Status::OK();
  }

 private:
  static constexpr std::size_t kBlockEntries = 512;

  std::unique_ptr<RandomAccessFile> file_;
  IoStats* io_ = nullptr;
  uint64_t cursor_ = 0;
  uint64_t count_ = 0;
  std::vector<SaEntry> buffer_;
  std::size_t buffer_pos_ = 0;
  SaEntry head_{};
  bool has_head_ = false;
};

}  // namespace

StatusOr<B2stResult> B2stBuilder::Build(const TextInfo& text) {
  WallTimer total_timer;
  ERA_RETURN_NOT_OK(ValidateBuildOptions(options_));
  Env* env = options_.GetEnv();
  ERA_RETURN_NOT_OK(env->CreateDir(options_.work_dir));

  B2stResult result;
  result.work_dir = options_.work_dir;
  BuildStats& stats = result.stats;

  // SA-IS working set is ~17-20 bytes per input byte (expanded integer
  // string, suffix array, type/bucket arrays); size partitions so phase 1
  // stays within the budget.
  const uint64_t partition_bytes =
      std::max<uint64_t>(4096, options_.memory_budget / 20);
  const uint64_t n = text.length;
  const uint64_t num_partitions = (n + partition_bytes - 1) / partition_bytes;
  stats.num_groups = num_partitions;

  StringReaderOptions reader_options;
  reader_options.buffer_bytes =
      std::max<uint64_t>(4096, options_.input_buffer_bytes);

  // ---- Phase 1: per-partition suffix arrays + order keys, spilled to disk.
  {
    IoStats phase1_io;
    ERA_ASSIGN_OR_RETURN(
        auto reader,
        OpenStringReader(env, text.path, reader_options, &phase1_io));
    for (uint64_t k = 0; k < num_partitions; ++k) {
      uint64_t begin = k * partition_bytes;
      uint64_t end = std::min(n, begin + partition_bytes);
      uint64_t context_end = std::min(n, end + kContextBytes);

      std::string chunk(context_end - begin, '\0');
      uint32_t got = 0;
      reader->BeginScan(begin);  // partitions overlap by the context
      ERA_RETURN_NOT_OK(reader->Fetch(begin,
                                      static_cast<uint32_t>(chunk.size()),
                                      chunk.data(), &got));
      if (got != chunk.size()) {
        return Status::IOError("short read of partition " + std::to_string(k));
      }
      std::vector<uint64_t> local_sa = BuildSuffixArray(chunk);
      std::string blob;
      blob.reserve((end - begin) * sizeof(SaEntry));
      for (uint64_t pos : local_sa) {
        if (pos >= end - begin) continue;
        SaEntry entry;
        entry.position = begin + pos;
        entry.key_len = static_cast<uint32_t>(
            std::min<uint64_t>(kKeyBytes, chunk.size() - pos));
        std::memset(entry.key, 0, sizeof(entry.key));
        std::memcpy(entry.key, chunk.data() + pos, entry.key_len);
        blob.append(reinterpret_cast<const char*>(&entry), sizeof(entry));
      }
      ERA_RETURN_NOT_OK(env->WriteFile(
          options_.work_dir + "/sa_" + std::to_string(k) + ".tmp", blob));
      phase1_io.bytes_written += blob.size();
    }
    stats.io.Add(phase1_io);
  }

  // ---- Phase 2: k-way merge over the temp-file streams.
  IoStats merge_io;
  std::vector<EntryStream> streams(num_partitions);
  for (uint64_t k = 0; k < num_partitions; ++k) {
    ERA_RETURN_NOT_OK(streams[k].Open(
        env, options_.work_dir + "/sa_" + std::to_string(k) + ".tmp",
        &merge_io));
  }
  // Dedicated fallback readers for key ties. The original algorithm
  // resolves these comparisons with order arrays precomputed by additional
  // sequential phase-1 passes (which is why its temporaries reach ~130x the
  // input); billing the fallback as sequential volume mirrors that cost
  // shape instead of charging phantom head movement.
  StringReaderOptions fallback_options;
  fallback_options.buffer_bytes = 16 << 10;
  fallback_options.bill_random_as_sequential = true;
  fallback_options.random_window_bytes = 1024;
  ERA_ASSIGN_OR_RETURN(
      auto lcp_reader_a,
      OpenStringReader(env, text.path, fallback_options, &merge_io));
  ERA_ASSIGN_OR_RETURN(
      auto lcp_reader_b,
      OpenStringReader(env, text.path, fallback_options, &merge_io));

  // B2ST never opens a build TileCache (one linear pass per partition
  // pair); plan without the carve so R is not shrunk for nothing.
  BuildOptions plan_options = options_;
  plan_options.tile_cache = false;
  plan_options.prefetch_reads = false;  // nor a prefetch ring
  ERA_ASSIGN_OR_RETURN(MemoryLayout layout,
                       PlanMemory(plan_options, text.alphabet.size()));
  stats.fm = layout.fm;
  stats.text_bytes = text.length;

  PreparedSubTree current;
  SaEntry prev{};
  bool have_prev = false;
  uint64_t emitted = 0;
  uint32_t subtree_counter = 0;
  IoStats write_io;

  auto flush_subtree = [&]() -> Status {
    if (current.leaves.empty()) return Status::OK();
    ERA_ASSIGN_OR_RETURN(TreeBuffer tree, BuildSubTree(current, text.length));
    stats.peak_tree_bytes =
        std::max(stats.peak_tree_bytes, tree.MemoryBytes());
    std::string filename = "bt_" + std::to_string(subtree_counter++) + ".bin";
    ERA_RETURN_NOT_OK(WriteSubTree(env, options_.work_dir + "/" + filename,
                                   "", tree, &write_io));
    result.subtree_files.push_back(filename);
    current.leaves.clear();
    current.branches.clear();
    return Status::OK();
  };

  // Key-based comparison with disk fallback. Returns a<b and, if the
  // entries are adjacent in the output, their LCP and branch symbols.
  auto compare = [&](const SaEntry& a, const SaEntry& b,
                     Mismatch* out) -> Status {
    uint32_t m = std::min(a.key_len, b.key_len);
    uint32_t i = 0;
    while (i < m && a.key[i] == b.key[i]) ++i;
    if (i < m) {
      out->a_less = static_cast<unsigned char>(a.key[i]) <
                    static_cast<unsigned char>(b.key[i]);
      out->lcp = i;
      out->a_symbol = a.key[i];
      out->b_symbol = b.key[i];
      return Status::OK();
    }
    if (m < kKeyBytes) {
      // The shorter key ended at the text end (terminal included): keys
      // cannot be equal-and-exhausted for distinct suffixes.
      out->a_less = a.key_len < b.key_len;
      out->lcp = i;
      out->a_symbol = i < a.key_len ? a.key[i] : 0;
      out->b_symbol = i < b.key_len ? b.key[i] : 0;
      return Status::OK();
    }
    return StreamedCompare(lcp_reader_a.get(), lcp_reader_b.get(), a.position,
                           b.position, kKeyBytes, out);
  };

  while (true) {
    int best = -1;
    for (std::size_t k = 0; k < streams.size(); ++k) {
      if (!streams[k].has_head()) continue;
      if (best < 0) {
        best = static_cast<int>(k);
        continue;
      }
      Mismatch order;
      ERA_RETURN_NOT_OK(compare(streams[k].head(),
                                streams[static_cast<std::size_t>(best)].head(),
                                &order));
      if (order.a_less) best = static_cast<int>(k);
    }
    if (best < 0) break;
    EntryStream& winner = streams[static_cast<std::size_t>(best)];
    const SaEntry head = winner.head();

    Mismatch adjacent;
    if (have_prev) {
      ERA_RETURN_NOT_OK(compare(prev, head, &adjacent));
      if (!adjacent.a_less) {
        return Status::Internal("merge order violated");
      }
      if (current.leaves.size() >= layout.fm) {
        ERA_RETURN_NOT_OK(flush_subtree());
      }
    }

    BranchInfo branch;
    branch.offset = adjacent.lcp;
    branch.c1 = adjacent.a_symbol;
    // B[0] of a forest tree: its prefix is empty, so c2 carries the first
    // symbol of L[0] (see BranchInfo).
    branch.c2 = current.leaves.empty() ? head.key[0] : adjacent.b_symbol;
    branch.defined = true;
    current.branches.push_back(branch);
    current.leaves.push_back(head.position);
    ++emitted;
    prev = head;
    have_prev = true;
    ERA_RETURN_NOT_OK(winner.Pop());
  }
  ERA_RETURN_NOT_OK(flush_subtree());
  stats.io.Add(merge_io);
  stats.io.Add(write_io);
  stats.num_subtrees = result.subtree_files.size();

  if (emitted != n) {
    return Status::Internal("merge emitted " + std::to_string(emitted) +
                            " of " + std::to_string(n) + " suffixes");
  }

  for (uint64_t k = 0; k < num_partitions; ++k) {
    ERA_RETURN_NOT_OK(env->DeleteFile(options_.work_dir + "/sa_" +
                                      std::to_string(k) + ".tmp"));
  }
  stats.total_seconds = total_timer.Seconds();
  return result;
}

}  // namespace era
