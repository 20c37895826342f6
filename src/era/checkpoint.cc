#include "era/checkpoint.h"

#include <cstdlib>
#include <sstream>

#include "common/crc32.h"
#include "common/logging.h"
#include "suffixtree/serializer.h"

namespace era {

namespace {

constexpr char kFormatLine[] = "era-checkpoint-v1";

std::string Render(const CheckpointFingerprint& fp,
                   const std::vector<CheckpointState::Group>& groups) {
  std::ostringstream os;
  os << kFormatLine << "\n";
  os << "text_length: " << fp.text_length << "\n";
  os << "fm: " << fp.fm << "\n";
  os << "groups: " << fp.num_groups << "\n";
  os << "subtrees: " << fp.num_subtrees << "\n";
  for (const auto& group : groups) {
    os << "group: " << group.group_id;
    for (uint32_t crc : group.subtree_crcs) os << " " << crc;
    os << "\n";
  }
  std::string body = os.str();
  std::ostringstream file;
  file << body << "crc: " << Crc32c(body.data(), body.size()) << "\n";
  return file.str();
}

bool ParseU64(const std::string& s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return end != s.c_str() && *end == '\0';
}

}  // namespace

std::string SubTreeFileName(uint64_t group_id, std::size_t k) {
  return "st_" + std::to_string(group_id) + "_" + std::to_string(k) + ".bin";
}

StatusOr<CheckpointState> LoadCheckpoint(Env* env,
                                         const std::string& work_dir) {
  const std::string path = work_dir + "/" + kCheckpointFilename;
  std::string raw;
  if (Status s = env->ReadFileToString(path, &raw); !s.ok()) {
    return s.WithContext("loading checkpoint " + path);
  }

  // The trailing "crc: N" line checksums everything before it.
  std::size_t crc_pos = raw.rfind("\ncrc: ");
  if (crc_pos == std::string::npos) {
    return Status::Corruption("checkpoint missing checksum line: " + path);
  }
  std::string body = raw.substr(0, crc_pos + 1);
  uint64_t declared = 0;
  std::string crc_value =
      raw.substr(crc_pos + 6, raw.size() - crc_pos - 6);
  while (!crc_value.empty() && crc_value.back() == '\n') crc_value.pop_back();
  if (!ParseU64(crc_value, &declared) ||
      Crc32c(body.data(), body.size()) != static_cast<uint32_t>(declared)) {
    return Status::Corruption("checkpoint checksum mismatch: " + path);
  }

  CheckpointState state;
  std::istringstream is(body);
  std::string line;
  if (!std::getline(is, line) || line != kFormatLine) {
    return Status::Corruption("not a checkpoint file: " + path);
  }
  while (std::getline(is, line)) {
    std::size_t colon = line.find(": ");
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    std::string value = line.substr(colon + 2);
    bool ok = true;
    if (key == "text_length") {
      ok = ParseU64(value, &state.fingerprint.text_length);
    } else if (key == "fm") {
      ok = ParseU64(value, &state.fingerprint.fm);
    } else if (key == "groups") {
      ok = ParseU64(value, &state.fingerprint.num_groups);
    } else if (key == "subtrees") {
      ok = ParseU64(value, &state.fingerprint.num_subtrees);
    } else if (key == "group") {
      CheckpointState::Group group;
      std::istringstream fields(value);
      std::string field;
      bool first = true;
      while (fields >> field) {
        uint64_t n = 0;
        if (!ParseU64(field, &n)) {
          ok = false;
          break;
        }
        if (first) {
          group.group_id = n;
          first = false;
        } else {
          group.subtree_crcs.push_back(static_cast<uint32_t>(n));
        }
      }
      if (first) ok = false;
      if (ok) state.groups.push_back(std::move(group));
    }
    if (!ok) {
      return Status::Corruption("bad checkpoint line \"" + line + "\" in " +
                                path);
    }
  }
  return state;
}

ResumePlan PlanResume(Env* env, const std::string& work_dir,
                      const CheckpointFingerprint& fingerprint,
                      const PartitionPlan& plan) {
  ResumePlan out;
  out.group_done.assign(plan.groups.size(), 0);
  out.group_crcs.resize(plan.groups.size());

  auto state = LoadCheckpoint(env, work_dir);
  if (!state.ok()) {
    ERA_LOG(Info) << "resume: no usable checkpoint ("
                  << state.status().ToString() << "); rebuilding everything";
    return out;
  }
  if (!(state->fingerprint == fingerprint)) {
    ERA_LOG(Warn) << "resume: checkpoint fingerprint does not match this "
                     "build; rebuilding everything";
    return out;
  }

  for (const auto& group : state->groups) {
    if (group.group_id >= plan.groups.size()) continue;
    const std::size_t expected =
        plan.groups[group.group_id].prefixes.size();
    if (group.subtree_crcs.size() != expected) continue;
    // Re-read every recorded file: resume trusts checksums, not existence.
    // A file a build of an older format left behind is intact but
    // unreadable, so its format version must be the current one too.
    bool all_ok = true;
    for (std::size_t k = 0; k < expected && all_ok; ++k) {
      const std::string path =
          work_dir + "/" + SubTreeFileName(group.group_id, k);
      std::string bytes;
      if (!env->ReadFileToString(path, &bytes).ok() ||
          Crc32c(bytes.data(), bytes.size()) != group.subtree_crcs[k] ||
          !InspectSubTreeFile(env, path).ok()) {
        all_ok = false;
      }
    }
    if (!all_ok) {
      ERA_LOG(Warn) << "resume: group " << group.group_id
                    << " failed verification; rebuilding it";
      continue;
    }
    out.group_done[group.group_id] = 1;
    out.group_crcs[group.group_id] = group.subtree_crcs;
    ++out.groups_skipped;
    out.subtrees_verified += expected;
  }
  return out;
}

CheckpointManager::CheckpointManager(Env* env, std::string work_dir,
                                     const CheckpointFingerprint& fingerprint,
                                     std::vector<uint64_t> group_sizes)
    : env_(env),
      path_(std::move(work_dir) + "/" + kCheckpointFilename),
      fingerprint_(fingerprint),
      pending_(std::move(group_sizes)),
      crcs_(pending_.size()),
      done_(pending_.size(), 0) {
  for (std::size_t g = 0; g < pending_.size(); ++g) {
    crcs_[g].assign(pending_[g], 0);
  }
}

void CheckpointManager::MarkGroupVerified(uint64_t group_id,
                                          std::vector<uint32_t> crcs) {
  std::lock_guard<std::mutex> lock(mu_);
  if (group_id >= done_.size()) return;
  crcs_[group_id] = std::move(crcs);
  pending_[group_id] = 0;
  done_[group_id] = 1;
}

void CheckpointManager::NoteSubTreeWritten(uint64_t group_id, std::size_t k,
                                           uint32_t file_crc) {
  std::lock_guard<std::mutex> lock(mu_);
  if (group_id >= done_.size() || done_[group_id] ||
      k >= crcs_[group_id].size() || pending_[group_id] == 0) {
    return;
  }
  crcs_[group_id][k] = file_crc;
  if (--pending_[group_id] == 0) {
    done_[group_id] = 1;
    Status s = WriteLocked();
    if (!s.ok() && status_.ok()) {
      status_ = s;
      ERA_LOG(Warn) << "checkpoint write failed (build continues): "
                    << s.ToString();
    }
  }
}

Status CheckpointManager::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

Status CheckpointManager::WriteLocked() {
  std::vector<CheckpointState::Group> groups;
  for (std::size_t g = 0; g < done_.size(); ++g) {
    if (done_[g]) groups.push_back({g, crcs_[g]});
  }
  return AtomicallyWriteFile(env_, path_, Render(fingerprint_, groups));
}

}  // namespace era
