#include "suffixtree/serializer.h"

#include <cstring>

#include "common/crc32.h"

namespace era {

namespace {

constexpr char kMagic[8] = {'E', 'R', 'A', 'S', 'U', 'B', 'T', 'R'};
/// The bit-packed format (compressed_tree.h), the only version read.
constexpr uint32_t kVersionPacked = 3;

struct Header {
  char magic[8];
  uint32_t version;
  uint32_t prefix_len;
  uint64_t node_count;
  uint32_t crc;
  uint32_t reserved;
};
static_assert(sizeof(Header) == 32, "keep the header fixed-size");

/// Reads and checks the header and prefix of `file`: magic, version and the
/// prefix's bounds. The payload follows at sizeof(Header) + prefix size.
Status ReadHeader(RandomAccessFile* file, const std::string& path,
                  Header* header, std::string* prefix) {
  std::size_t got = 0;
  ERA_RETURN_NOT_OK(
      file->Read(0, sizeof(*header), reinterpret_cast<char*>(header), &got));
  if (got != sizeof(*header) ||
      std::memcmp(header->magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad sub-tree magic in " + path);
  }
  if (header->version != kVersionPacked) {
    return Status::NotSupported(
        "sub-tree " + path + " has format version " +
        std::to_string(header->version) + " (only version " +
        std::to_string(kVersionPacked) + " is read); rebuild the index");
  }
  if (sizeof(*header) + header->prefix_len > file->Size()) {
    return Status::Corruption("truncated prefix in " + path);
  }
  prefix->resize(header->prefix_len);
  ERA_RETURN_NOT_OK(
      file->Read(sizeof(*header), prefix->size(), prefix->data(), &got));
  if (got != prefix->size()) {
    return Status::Corruption("truncated prefix in " + path);
  }
  return Status::OK();
}

}  // namespace

Status WriteSubTree(Env* env, const std::string& path,
                    const std::string& prefix, const TreeBuffer& tree,
                    IoStats* stats, uint32_t* file_crc) {
  ERA_ASSIGN_OR_RETURN(CountedTree counted, BuildCountedTree(tree));
  const std::string payload = ServedSubTree::EncodePayload(counted);

  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersionPacked;
  header.prefix_len = static_cast<uint32_t>(prefix.size());
  header.node_count = counted.size();
  header.reserved = 0;
  header.crc = Crc32c(payload.data(), payload.size(),
                      Crc32c(prefix.data(), prefix.size()));

  // Atomic + durable: stream into <path>.tmp, Sync, rename. A crash leaves
  // either no file or the complete file, never a torn sub-tree a serving
  // TreeIndex could open.
  ERA_ASSIGN_OR_RETURN(AtomicFileWriter writer,
                       AtomicFileWriter::Open(env, path));
  ERA_RETURN_NOT_OK(writer.Append(reinterpret_cast<const char*>(&header),
                                  sizeof(header)));
  ERA_RETURN_NOT_OK(writer.Append(prefix.data(), prefix.size()));
  ERA_RETURN_NOT_OK(writer.Append(payload.data(), payload.size()));
  ERA_RETURN_NOT_OK(writer.Commit());
  if (file_crc != nullptr) *file_crc = writer.crc32c();
  if (stats != nullptr) {
    stats->bytes_written += sizeof(header) + prefix.size() + payload.size();
  }
  return Status::OK();
}

Status ReadServedSubTree(Env* env, const std::string& path,
                         ServedSubTree* tree, std::string* prefix_out,
                         IoStats* stats) {
  ERA_ASSIGN_OR_RETURN(auto file, env->OpenRandomAccess(path));
  Header header;
  std::string prefix;
  ERA_RETURN_NOT_OK(ReadHeader(file.get(), path, &header, &prefix));

  // The payload is whatever follows the prefix; the packed decoder
  // cross-checks its size against the node count and recorded section
  // sizes.
  const std::size_t payload_bytes =
      file->Size() - sizeof(header) - prefix.size();
  std::string payload;
  // Room for the decoder's reader pad up front, so appending it neither
  // copies the payload nor doubles the resident blob's capacity.
  payload.reserve(payload_bytes + kBitReaderPadBytes);
  payload.resize(payload_bytes);
  std::size_t got = 0;
  ERA_RETURN_NOT_OK(file->Read(sizeof(header) + prefix.size(), payload_bytes,
                               payload.data(), &got));
  if (got != payload_bytes) {
    return Status::Corruption("truncated payload in " + path);
  }
  if (Crc32c(payload.data(), payload.size(),
             Crc32c(prefix.data(), prefix.size())) != header.crc) {
    return Status::Corruption("CRC mismatch in " + path);
  }
  if (stats != nullptr) {
    stats->bytes_read += sizeof(header) + prefix.size() + payload_bytes;
    ++stats->seeks;  // sub-tree loads are random accesses
  }
  auto served =
      ServedSubTree::FromPayload(std::move(payload), header.node_count);
  if (!served.ok()) {
    return served.status().WithContext("packed sub-tree " + path);
  }
  *tree = std::move(served).value();
  if (prefix_out != nullptr) *prefix_out = std::move(prefix);
  return Status::OK();
}

Status ReadSubTree(Env* env, const std::string& path, TreeBuffer* tree,
                   std::string* prefix_out, IoStats* stats) {
  ServedSubTree served;
  ERA_RETURN_NOT_OK(ReadServedSubTree(env, path, &served, prefix_out, stats));
  ERA_ASSIGN_OR_RETURN(CountedTree counted, served.Inflate());
  ERA_ASSIGN_OR_RETURN(*tree, LinkedFromCounted(counted));
  return Status::OK();
}

StatusOr<SubTreeFileInfo> InspectSubTreeFile(Env* env,
                                             const std::string& path) {
  ERA_ASSIGN_OR_RETURN(auto file, env->OpenRandomAccess(path));
  Header header;
  SubTreeFileInfo info;
  ERA_RETURN_NOT_OK(ReadHeader(file.get(), path, &header, &info.prefix));
  info.node_count = header.node_count;
  info.file_bytes = file->Size();
  info.payload_bytes = info.file_bytes - sizeof(header) - header.prefix_len;
  info.serving_bytes = info.payload_bytes + kBitReaderPadBytes;
  info.inflated_bytes = header.node_count * sizeof(CountedNode);
  return info;
}

}  // namespace era
