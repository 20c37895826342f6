// Checkpoint/resume: a build killed at an arbitrary write converges, after
// `BuildOptions::resume`, to an index byte-identical to an uninterrupted
// build — at any worker count. Plus the CHECKPOINT file format's corruption
// handling and the no-rewrite guarantee for verified groups.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "era/checkpoint.h"
#include "era/era_builder.h"
#include "era/parallel_builder.h"
#include "io/env.h"
#include "io/faulty_env.h"
#include "io/mem_env.h"
#include "tests/test_util.h"
#include "text/corpus.h"

namespace era {
namespace {

std::string TestText() {
  return testing::RepetitiveText(Alphabet::Dna(), 12000, 31);
}

BuildOptions SmallOptions(Env* env, const std::string& work_dir) {
  BuildOptions options;
  options.env = env;
  options.work_dir = work_dir;
  options.memory_budget = 2 << 20;
  options.input_buffer_bytes = 4096;
  return options;
}

/// MANIFEST plus every sub-tree file, keyed by relative name. Two builds are
/// "the same index" iff these maps are equal.
std::map<std::string, std::string> IndexBytes(Env* env,
                                              const std::string& work_dir,
                                              const TreeIndex& index) {
  std::map<std::string, std::string> bytes;
  EXPECT_TRUE(
      env->ReadFileToString(work_dir + "/MANIFEST", &bytes["MANIFEST"]).ok());
  for (const SubTreeEntry& entry : index.subtrees()) {
    EXPECT_TRUE(
        env->ReadFileToString(work_dir + "/" + entry.filename,
                              &bytes[entry.filename])
            .ok());
  }
  return bytes;
}

/// The reference index: one clean build of TestText() at a given worker
/// count. Worker counts matter: the builder derives FM from the per-worker
/// memory share, so different counts build legitimately different (but
/// internally deterministic) indexes.
struct Reference {
  MemEnv env;
  TextInfo info;
  std::map<std::string, std::string> bytes;
  uint64_t num_groups = 0;

  explicit Reference(unsigned workers) {
    auto materialized =
        MaterializeText(&env, "/text", Alphabet::Dna(), TestText());
    EXPECT_TRUE(materialized.ok());
    info = *materialized;
    ParallelBuilder builder(SmallOptions(&env, "/idx"), workers);
    auto result = builder.Build(info);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return;
    bytes = IndexBytes(&env, "/idx", result->index);
    num_groups = result->stats.num_groups;
  }
};

Reference& Ref(unsigned workers = 1) {
  static std::map<unsigned, Reference*>* refs =
      new std::map<unsigned, Reference*>();
  auto it = refs->find(workers);
  if (it == refs->end()) {
    it = refs->emplace(workers, new Reference(workers)).first;
  }
  return *it->second;
}

/// Builds with `workers` and returns (status, groups_resumed, index bytes
/// on success).
struct TrialResult {
  Status status = Status::OK();
  uint64_t groups_resumed = 0;
  std::map<std::string, std::string> bytes;
};

TrialResult RunBuild(Env* env, const TextInfo& info, unsigned workers,
                     bool resume) {
  BuildOptions options = SmallOptions(env, "/idx");
  options.resume = resume;
  TrialResult out;
  ParallelBuilder builder(options, workers);
  auto result = builder.Build(info);
  out.status = result.status();
  if (result.ok()) {
    out.groups_resumed = result->stats.groups_resumed;
    out.bytes = IndexBytes(env, "/idx", result->index);
  }
  return out;
}

/// One crash-then-resume cycle: build under a FaultyEnv that crashes after
/// the `kill_at`-th append, then resume on the undamaged base env. Returns
/// groups_resumed of the resume pass; the resumed index must equal Ref().
uint64_t CrashThenResume(uint64_t kill_at, unsigned workers,
                         bool* crash_fired) {
  MemEnv base;
  auto info = MaterializeText(&base, "/text", Alphabet::Dna(), TestText());
  EXPECT_TRUE(info.ok());

  FaultSpec spec;
  spec.crash_after_writes = kill_at;
  FaultyEnv faulty(&base, spec);
  TrialResult crashed = RunBuild(&faulty, *info, workers, /*resume=*/false);
  *crash_fired = faulty.crashed();
  if (*crash_fired) {
    EXPECT_FALSE(crashed.status.ok())
        << "a build whose env crashed cannot report success";
  }

  TrialResult resumed = RunBuild(&base, *info, workers, /*resume=*/true);
  EXPECT_TRUE(resumed.status.ok())
      << "kill_at=" << kill_at << " workers=" << workers << ": "
      << resumed.status.ToString();
  EXPECT_EQ(resumed.bytes, Ref(workers).bytes)
      << "kill_at=" << kill_at << " workers=" << workers
      << ": resumed index differs from the uninterrupted build";
  return resumed.groups_resumed;
}

TEST(ResumeTest, KillSweepConvergesByteIdenticalSerial) {
  uint64_t total_resumed = 0;
  for (uint64_t kill_at : {1, 2, 3, 5, 8, 13, 21, 34, 55, 89}) {
    bool crash_fired = false;
    total_resumed += CrashThenResume(kill_at, /*workers=*/1, &crash_fired);
    if (!crash_fired) break;  // past the last write: nothing left to kill
  }
  EXPECT_GT(total_resumed, 0u)
      << "no kill point left a verifiable group behind — the sweep proved "
         "nothing about resume";
}

TEST(ResumeTest, KillSweepConvergesByteIdenticalParallel) {
  for (unsigned workers : {2u, 8u}) {
    for (uint64_t kill_at : {3, 13, 34}) {
      bool crash_fired = false;
      CrashThenResume(kill_at, workers, &crash_fired);
    }
  }
}

TEST(ResumeTest, ResumeAfterCompleteBuildSkipsEveryGroup) {
  MemEnv env;
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), TestText());
  ASSERT_TRUE(info.ok());
  TrialResult first = RunBuild(&env, *info, 1, /*resume=*/false);
  ASSERT_TRUE(first.status.ok());
  TrialResult second = RunBuild(&env, *info, 1, /*resume=*/true);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.groups_resumed, Ref().num_groups);
  EXPECT_EQ(second.bytes, Ref().bytes);
}

/// Forwarding Env that records every path opened for writing.
class RecordingEnv : public Env {
 public:
  explicit RecordingEnv(Env* base) : base_(base) {}

  StatusOr<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override {
    return base_->OpenRandomAccess(path);
  }
  StatusOr<std::unique_ptr<WritableFile>> NewWritable(
      const std::string& path) override {
    written_.insert(path);
    return base_->NewWritable(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }

  const std::set<std::string>& written() const { return written_; }

 private:
  Env* base_;
  std::set<std::string> written_;
};

TEST(ResumeTest, VerifiedGroupsAreNotRewritten) {
  MemEnv env;
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), TestText());
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(RunBuild(&env, *info, 1, /*resume=*/false).status.ok());

  RecordingEnv recording(&env);
  TrialResult resumed = RunBuild(&recording, *info, 1, /*resume=*/true);
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_EQ(resumed.groups_resumed, Ref().num_groups);
  for (const std::string& path : recording.written()) {
    EXPECT_EQ(path.find("st_"), std::string::npos)
        << "resume rewrote a verified sub-tree: " << path;
  }
}

TEST(ResumeTest, CorruptSubTreeGetsItsGroupRebuilt) {
  MemEnv env;
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), TestText());
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(RunBuild(&env, *info, 1, /*resume=*/false).status.ok());

  // Flip one byte in the first sub-tree of group 0.
  std::string victim = "/idx/" + SubTreeFileName(0, 0);
  std::string bytes;
  ASSERT_TRUE(env.ReadFileToString(victim, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x40;
  ASSERT_TRUE(env.WriteFile(victim, bytes).ok());

  TrialResult resumed = RunBuild(&env, *info, 1, /*resume=*/true);
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_EQ(resumed.groups_resumed, Ref().num_groups - 1)
      << "exactly the damaged group must rebuild";
  EXPECT_EQ(resumed.bytes, Ref().bytes) << "the rebuild must repair the file";
}

TEST(ResumeTest, OldFormatSubTreeGetsItsGroupRebuilt) {
  MemEnv env;
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), TestText());
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(RunBuild(&env, *info, 1, /*resume=*/false).status.ok());

  // A build of an older release left group 0's first file: header version 3
  // and a CHECKPOINT whose recorded CRC matches it.
  const std::string victim = "/idx/" + SubTreeFileName(0, 0);
  std::string bytes;
  ASSERT_TRUE(env.ReadFileToString(victim, &bytes).ok());
  const uint32_t old_crc = Crc32c(bytes.data(), bytes.size());
  const uint32_t version = 3;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  ASSERT_TRUE(env.WriteFile(victim, bytes).ok());
  const uint32_t new_crc = Crc32c(bytes.data(), bytes.size());

  std::string checkpoint;
  ASSERT_TRUE(env.ReadFileToString("/idx/CHECKPOINT", &checkpoint).ok());
  const std::string old_line = "group: 0 " + std::to_string(old_crc);
  const std::size_t at = checkpoint.find(old_line);
  ASSERT_NE(at, std::string::npos);
  checkpoint.replace(at, old_line.size(),
                     "group: 0 " + std::to_string(new_crc));
  const std::size_t crc_line = checkpoint.rfind("crc: ");
  checkpoint = checkpoint.substr(0, crc_line) + "crc: " +
               std::to_string(Crc32c(checkpoint.data(), crc_line)) + "\n";
  ASSERT_TRUE(env.WriteFile("/idx/CHECKPOINT", checkpoint).ok());
  ASSERT_TRUE(LoadCheckpoint(&env, "/idx").ok()) << "sanity: re-sealed";

  TrialResult resumed = RunBuild(&env, *info, 1, /*resume=*/true);
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_EQ(resumed.groups_resumed, Ref().num_groups - 1)
      << "the group holding the old-format file must rebuild";
  EXPECT_EQ(resumed.bytes, Ref().bytes) << "the rebuild must rewrite it";
}

TEST(ResumeTest, FingerprintMismatchForcesFullRebuild) {
  MemEnv env;
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), TestText());
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(RunBuild(&env, *info, 1, /*resume=*/false).status.ok());

  // A different text under the same work_dir: the old CHECKPOINT describes a
  // different plan and must be ignored wholesale.
  std::string other = testing::RandomText(Alphabet::Dna(), 9000, 7);
  auto other_info = MaterializeText(&env, "/text2", Alphabet::Dna(), other);
  ASSERT_TRUE(other_info.ok());
  BuildOptions options = SmallOptions(&env, "/idx");
  options.resume = true;
  ParallelBuilder builder(options, 1);
  auto result = builder.Build(*other_info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.groups_resumed, 0u);

  // And the rebuilt index is exactly what a clean build of the other text
  // produces.
  MemEnv clean;
  ASSERT_TRUE(MaterializeText(&clean, "/text2", Alphabet::Dna(), other).ok());
  ParallelBuilder clean_builder(SmallOptions(&clean, "/idx"), 1);
  auto clean_result = clean_builder.Build(*other_info);
  ASSERT_TRUE(clean_result.ok());
  EXPECT_EQ(IndexBytes(&env, "/idx", result->index),
            IndexBytes(&clean, "/idx", clean_result->index));
}

TEST(ResumeTest, CheckpointOffMeansNoFileAndResumeDegrades) {
  MemEnv env;
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), TestText());
  ASSERT_TRUE(info.ok());
  BuildOptions options = SmallOptions(&env, "/idx");
  options.checkpoint = false;
  ParallelBuilder builder(options, 1);
  ASSERT_TRUE(builder.Build(*info).ok());
  EXPECT_FALSE(env.FileExists("/idx/CHECKPOINT"));

  // resume with nothing to resume from: silent full rebuild.
  TrialResult resumed = RunBuild(&env, *info, 1, /*resume=*/true);
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_EQ(resumed.groups_resumed, 0u);
  EXPECT_EQ(resumed.bytes, Ref().bytes);
}

// ---------------------------------------------------------------------------
// CHECKPOINT file parsing
// ---------------------------------------------------------------------------

TEST(CheckpointFileTest, MissingFileIsIOError) {
  MemEnv env;
  EXPECT_TRUE(LoadCheckpoint(&env, "/idx").status().IsIOError());
}

TEST(CheckpointFileTest, GarbageIsCorruption) {
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/idx/CHECKPOINT", "not a checkpoint").ok());
  EXPECT_TRUE(LoadCheckpoint(&env, "/idx").status().IsCorruption());
}

TEST(CheckpointFileTest, TamperedBodyIsCorruption) {
  MemEnv env;
  auto info = MaterializeText(&env, "/text", Alphabet::Dna(), TestText());
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(RunBuild(&env, *info, 1, /*resume=*/false).status.ok());
  ASSERT_TRUE(LoadCheckpoint(&env, "/idx").ok()) << "sanity: valid as built";

  std::string content;
  ASSERT_TRUE(env.ReadFileToString("/idx/CHECKPOINT", &content).ok());
  // Flip a digit inside a recorded CRC; the trailing body checksum must
  // catch it.
  std::size_t pos = content.find("group: ");
  ASSERT_NE(pos, std::string::npos);
  std::size_t digit = content.find_first_of("0123456789", pos + 7);
  ASSERT_NE(digit, std::string::npos);
  content[digit] = content[digit] == '1' ? '2' : '1';
  ASSERT_TRUE(env.WriteFile("/idx/CHECKPOINT", content).ok());
  EXPECT_TRUE(LoadCheckpoint(&env, "/idx").status().IsCorruption());

  // Truncating away the trailing crc line is corruption, not acceptance.
  std::size_t crc_line = content.rfind("crc: ");
  ASSERT_NE(crc_line, std::string::npos);
  ASSERT_TRUE(
      env.WriteFile("/idx/CHECKPOINT", content.substr(0, crc_line)).ok());
  EXPECT_TRUE(LoadCheckpoint(&env, "/idx").status().IsCorruption());
}

TEST(CheckpointFileTest, SubTreeFileNameIsTheSharedSlotNaming) {
  EXPECT_EQ(SubTreeFileName(3, 7), "st_3_7.bin");
}

}  // namespace
}  // namespace era
