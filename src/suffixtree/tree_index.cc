#include "suffixtree/tree_index.h"

#include <charconv>
#include <sstream>
#include <string_view>

#include "common/crc32.h"
#include "suffixtree/serializer.h"

namespace era {

namespace {

std::string HexEncode(const std::string& in) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(in.size() * 2);
  for (unsigned char c : in) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  return out;
}

StatusOr<std::string> HexDecode(const std::string& in) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  if (in.size() % 2 != 0) return Status::Corruption("odd hex length");
  std::string out;
  out.reserve(in.size() / 2);
  for (std::size_t i = 0; i < in.size(); i += 2) {
    int hi = nibble(in[i]);
    int lo = nibble(in[i + 1]);
    if (hi < 0 || lo < 0) return Status::Corruption("bad hex digit");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

/// Parses all of `text` as a decimal number; false on any other character
/// or on overflow.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

uint32_t TreeIndex::AddSubTree(const std::string& prefix, uint64_t frequency,
                               const std::string& filename) {
  subtrees_.push_back({prefix, frequency, filename});
  return static_cast<uint32_t>(subtrees_.size() - 1);
}

Status TreeIndex::Save(Env* env, const std::string& dir) const {
  std::ostringstream os;
  os << "format: era-tree-index-v1\n";
  os << "text_path: " << text_.path << "\n";
  os << "text_length: " << text_.length << "\n";
  os << "alphabet: " << text_.alphabet.symbols() << "\n";
  os << "subtree_count: " << subtrees_.size() << "\n";
  for (const SubTreeEntry& e : subtrees_) {
    os << "subtree: " << e.prefix << " " << e.frequency << " " << e.filename
       << "\n";
  }
  os << "trie: " << HexEncode(trie_.Serialize()) << "\n";
  // Whole-file checksum line (over everything above) + atomic durable
  // publish: a reader either sees a complete, checksum-valid MANIFEST or
  // none at all.
  std::string body = os.str();
  std::ostringstream manifest;
  manifest << body << "crc: " << Crc32c(body.data(), body.size()) << "\n";
  return AtomicallyWriteFile(env, dir + "/MANIFEST", manifest.str());
}

StatusOr<TreeIndex> TreeIndex::Load(Env* env, const std::string& dir) {
  std::string manifest;
  ERA_RETURN_NOT_OK(env->ReadFileToString(dir + "/MANIFEST", &manifest));

  // The last line is the checksum of every byte before it (Save emits it
  // last). Verify it before parsing any field, so a damaged MANIFEST is
  // Corruption and never reaches a field parser.
  const std::size_t last_line =
      manifest.empty() ? 0 : manifest.rfind('\n', manifest.size() - 2) + 1;
  const std::string_view crc_line =
      std::string_view(manifest).substr(last_line);
  uint32_t declared = 0;
  if (!crc_line.starts_with("crc: ") || !crc_line.ends_with('\n')) {
    return Status::Corruption("manifest missing checksum line in " + dir);
  }
  if (!ParseNumber(crc_line.substr(5, crc_line.size() - 6), &declared) ||
      Crc32c(manifest.data(), last_line) != declared) {
    return Status::Corruption("MANIFEST checksum mismatch in " + dir);
  }

  TreeIndex index;
  index.dir_ = dir;
  std::istringstream is(manifest.substr(0, last_line));
  std::string line;
  bool saw_format = false;
  while (std::getline(is, line)) {
    std::size_t colon = line.find(": ");
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    std::string value = line.substr(colon + 2);
    if (key == "format") {
      if (value != "era-tree-index-v1") {
        return Status::NotSupported("unknown index format: " + value);
      }
      saw_format = true;
    } else if (key == "text_path") {
      index.text_.path = value;
    } else if (key == "text_length") {
      if (!ParseNumber(value, &index.text_.length)) {
        return Status::Corruption("bad text_length in manifest: " + line);
      }
    } else if (key == "alphabet") {
      ERA_ASSIGN_OR_RETURN(index.text_.alphabet, Alphabet::Create(value));
    } else if (key == "subtree") {
      std::istringstream fields(value);
      SubTreeEntry e;
      std::string frequency;
      if (!(fields >> e.prefix >> frequency >> e.filename) ||
          !ParseNumber(frequency, &e.frequency)) {
        return Status::Corruption("bad subtree manifest line: " + line);
      }
      index.subtrees_.push_back(std::move(e));
    } else if (key == "trie") {
      ERA_ASSIGN_OR_RETURN(std::string blob, HexDecode(value));
      ERA_ASSIGN_OR_RETURN(index.trie_, PrefixTrie::Deserialize(blob));
    }
  }
  if (!saw_format) {
    return Status::Corruption("manifest missing format line in " + dir);
  }
  return index;
}

StatusOr<std::shared_ptr<const ServedSubTree>> TreeIndex::OpenSubTree(
    Env* env, uint32_t id, IoStats* stats, const QueryContext* ctx) const {
  if (id >= subtrees_.size()) {
    return Status::InvalidArgument("sub-tree id out of range");
  }
  Cache& cache = *cache_;
  {
    std::lock_guard<std::mutex> lock(cache.mutex);
    auto it = cache.entries.find(id);
    if (it != cache.entries.end()) {
      cache.lru.splice(cache.lru.begin(), cache.lru, it->second.pos);
      ++cache.hits;
      if (stats != nullptr) ++stats->cache_hits;
      return it->second.tree;
    }
  }

  // Load outside the lock so a slow device never serializes other ids
  // (concurrent misses on the same id may duplicate the read; the insert
  // below keeps exactly one copy). Transient device errors are retried;
  // Corruption fails straight through (and is never inserted into the
  // cache below).
  // The device-read boundary: a cache hit above always succeeds, but a dead
  // query does not get to start a sub-tree load.
  if (ctx != nullptr) ERA_RETURN_NOT_OK(ctx->Check());
  auto tree = std::make_shared<ServedSubTree>();
  std::string prefix;
  const std::string path = dir_ + "/" + subtrees_[id].filename;
  uint64_t retries = 0;
  Status load = RunWithRetry(
      cache.options.retry, ctx,
      [&] {
        *tree = ServedSubTree();
        return ReadServedSubTree(env, path, tree.get(), &prefix, stats);
      },
      &retries);
  if (stats != nullptr) stats->read_retries += retries;
  ERA_RETURN_NOT_OK(load);
  if (prefix != subtrees_[id].prefix) {
    return Status::Corruption("sub-tree prefix mismatch for id " +
                              std::to_string(id));
  }
  std::shared_ptr<const ServedSubTree> shared = std::move(tree);
  const uint64_t bytes = shared->MemoryBytes();

  // Evicted trees are released after the lock: freeing a large blob must
  // not stall other lookups (in-flight queries may still pin them anyway).
  std::vector<std::shared_ptr<const ServedSubTree>> evicted;
  std::lock_guard<std::mutex> lock(cache.mutex);
  ++cache.misses;
  if (stats != nullptr) ++stats->cache_misses;
  auto it = cache.entries.find(id);
  if (it != cache.entries.end()) {
    // Another thread inserted while we were loading; keep its copy.
    cache.lru.splice(cache.lru.begin(), cache.lru, it->second.pos);
    return it->second.tree;
  }
  cache.lru.push_front(id);
  cache.entries.emplace(id, Cache::Entry{shared, cache.lru.begin(), bytes});
  cache.resident_bytes += bytes;
  while (cache.resident_bytes > cache.options.budget_bytes &&
         cache.entries.size() > 1) {
    auto vit = cache.entries.find(cache.lru.back());
    cache.resident_bytes -= vit->second.bytes;
    cache.evicted_bytes += vit->second.bytes;
    if (stats != nullptr) stats->cache_evicted_bytes += vit->second.bytes;
    ++cache.evictions;
    evicted.push_back(std::move(vit->second.tree));
    cache.lru.pop_back();
    cache.entries.erase(vit);
  }
  return shared;
}

void TreeIndex::ConfigureCache(const TreeCacheOptions& options) const {
  cache_ = std::make_shared<Cache>(options);
}

void TreeIndex::EvictCache() const {
  Cache& cache = *cache_;
  std::unordered_map<uint32_t, Cache::Entry> dropped;  // freed after unlock
  std::lock_guard<std::mutex> lock(cache.mutex);
  dropped.swap(cache.entries);
  cache.lru.clear();
  cache.resident_bytes = 0;
}

TreeIndex::CacheSnapshot TreeIndex::CacheStats() const {
  Cache& cache = *cache_;
  std::lock_guard<std::mutex> lock(cache.mutex);
  CacheSnapshot snap;
  snap.hits = cache.hits;
  snap.misses = cache.misses;
  snap.evictions = cache.evictions;
  snap.evicted_bytes = cache.evicted_bytes;
  snap.resident_bytes = cache.resident_bytes;
  snap.resident_trees = cache.entries.size();
  return snap;
}

uint64_t TreeIndex::TotalSuffixes() const { return trie_.TotalFrequency(0); }

}  // namespace era
