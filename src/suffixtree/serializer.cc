#include "suffixtree/serializer.h"

#include <cstring>

#include "common/crc32.h"

namespace era {

namespace {

constexpr char kMagic[8] = {'E', 'R', 'A', 'S', 'U', 'B', 'T', 'R'};
/// The leaf/internal split bit-packed format (compressed_tree.h), the only
/// version read.
constexpr uint32_t kVersionPacked = 4;

struct Header {
  char magic[8];
  uint32_t version;
  uint32_t prefix_len;
  uint64_t node_count;
  uint32_t crc;
  uint32_t reserved;
};
static_assert(sizeof(Header) == 32, "keep the header fixed-size");

/// Checks a header read from a `file_size`-byte file: magic, version and the
/// prefix's bounds. The prefix follows the header; the payload follows the
/// prefix.
Status CheckHeader(const Header& header, uint64_t file_size,
                   const std::string& path) {
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad sub-tree magic in " + path);
  }
  if (header.version != kVersionPacked) {
    return Status::NotSupported(
        "sub-tree " + path + " has format version " +
        std::to_string(header.version) + " (only version " +
        std::to_string(kVersionPacked) + " is read); rebuild the index");
  }
  if (sizeof(header) + header.prefix_len > file_size) {
    return Status::Corruption("truncated prefix in " + path);
  }
  return Status::OK();
}

}  // namespace

Status WriteSubTree(Env* env, const std::string& path,
                    const std::string& prefix, const TreeBuffer& tree,
                    IoStats* stats, uint32_t* file_crc) {
  ERA_ASSIGN_OR_RETURN(const std::string payload,
                       ServedSubTree::EncodePayload(tree));

  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersionPacked;
  header.prefix_len = static_cast<uint32_t>(prefix.size());
  header.node_count = tree.size();
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
  // One device read per load: the whole file, then header, prefix and
  // payload are parsed from memory. Room for the decoder's reader pad up
  // front, so appending it neither copies the payload nor doubles the
  // resident blob's capacity.
  const uint64_t file_bytes = file->Size();
  std::string bytes;
  bytes.reserve(file_bytes + kBitReaderPadBytes);
  bytes.resize(file_bytes);
  std::size_t got = 0;
  ERA_RETURN_NOT_OK(file->Read(0, file_bytes, bytes.data(), &got));
  if (got != file_bytes) {
    return Status::Corruption("short read of sub-tree " + path);
  }
  Header header;
  if (file_bytes < sizeof(header)) {
    return Status::Corruption("bad sub-tree magic in " + path);
  }
  std::memcpy(&header, bytes.data(), sizeof(header));
  ERA_RETURN_NOT_OK(CheckHeader(header, file_bytes, path));
  // The CRC covers the prefix and the payload, which are contiguous.
  if (Crc32c(bytes.data() + sizeof(header), file_bytes - sizeof(header)) !=
      header.crc) {
    return Status::Corruption("CRC mismatch in " + path);
  }
  if (stats != nullptr) {
    stats->bytes_read += file_bytes;
    ++stats->seeks;  // sub-tree loads are random accesses
  }
  std::string prefix = bytes.substr(sizeof(header), header.prefix_len);
  // The payload is whatever follows the prefix; the packed decoder
  // cross-checks its size against the node count and recorded section
  // sizes.
  bytes.erase(0, sizeof(header) + header.prefix_len);
  auto served = ServedSubTree::FromPayload(std::move(bytes), header.node_count);
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
  *tree = served.Inflate();
  return Status::OK();
}

StatusOr<SubTreeFileInfo> InspectSubTreeFile(Env* env,
                                             const std::string& path) {
  ERA_ASSIGN_OR_RETURN(auto file, env->OpenRandomAccess(path));
  SubTreeFileInfo info;
  info.file_bytes = file->Size();
  Header header;
  std::size_t got = 0;
  ERA_RETURN_NOT_OK(
      file->Read(0, sizeof(header), reinterpret_cast<char*>(&header), &got));
  if (got != sizeof(header)) {
    return Status::Corruption("bad sub-tree magic in " + path);
  }
  ERA_RETURN_NOT_OK(CheckHeader(header, info.file_bytes, path));
  info.prefix.resize(header.prefix_len);
  ERA_RETURN_NOT_OK(
      file->Read(sizeof(header), info.prefix.size(), info.prefix.data(), &got));
  if (got != info.prefix.size()) {
    return Status::Corruption("truncated prefix in " + path);
  }
  PackedHeader packed;
  ERA_RETURN_NOT_OK(file->Read(sizeof(header) + header.prefix_len,
                               sizeof(packed),
                               reinterpret_cast<char*>(&packed), &got));
  if (got != sizeof(packed) || packed.leaf_count > header.node_count) {
    return Status::Corruption("bad packed header in " + path);
  }
  const PackedSections sections =
      PackedSections::Of(packed, header.node_count);
  info.node_count = header.node_count;
  info.payload_bytes = info.file_bytes - sizeof(header) - header.prefix_len;
  info.serving_bytes =
      ServedSubTree::ServingBytes(info.payload_bytes, header.node_count);
  info.inflated_bytes = header.node_count * sizeof(TreeNode);
  info.internal_record_bytes = sections.internal_records;
  info.leaf_record_bytes = sections.leaf_records;
  return info;
}

}  // namespace era
