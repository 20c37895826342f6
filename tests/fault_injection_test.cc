// FaultyEnv fault injection and retry-with-backoff: the deterministic fault
// schedules, the durability model behind SimulateCrash, atomic publish
// surviving crashes, and transient faults absorbed by RunWithRetry in
// StringReader / TileCache / a full build.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "era/era_builder.h"
#include "io/env.h"
#include "io/faulty_env.h"
#include "io/mem_env.h"
#include "io/retry_policy.h"
#include "io/string_reader.h"
#include "io/tile_cache.h"
#include "tests/test_util.h"
#include "text/corpus.h"

namespace era {
namespace {

// ---------------------------------------------------------------------------
// ParseFaultSpec
// ---------------------------------------------------------------------------

TEST(ParseFaultSpecTest, ParsesTheDocumentedKeys) {
  auto spec = ParseFaultSpec(
      "read_transient=0.25,write_transient=0.5,short_write=0.125,"
      "fail_read_at=3,read_permanent=1,fail_write_at=7,write_permanent=0,"
      "enospc_after=64MB,crash_after_writes=9,torn_write_at=11,seed=13,"
      "path=work_dir");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DOUBLE_EQ(spec->read_transient_p, 0.25);
  EXPECT_DOUBLE_EQ(spec->write_transient_p, 0.5);
  EXPECT_DOUBLE_EQ(spec->short_write_p, 0.125);
  EXPECT_EQ(spec->fail_read_at, 3u);
  EXPECT_TRUE(spec->read_fail_permanent);
  EXPECT_EQ(spec->fail_write_at, 7u);
  EXPECT_FALSE(spec->write_fail_permanent);
  EXPECT_EQ(spec->enospc_after_bytes, 64ull << 20);
  EXPECT_EQ(spec->crash_after_writes, 9u);
  EXPECT_EQ(spec->torn_write_at, 11u);
  EXPECT_EQ(spec->seed, 13u);
  EXPECT_EQ(spec->path_filter, "work_dir");
}

TEST(ParseFaultSpecTest, RejectsGarbage) {
  EXPECT_FALSE(ParseFaultSpec("frobnicate=1").ok());
  EXPECT_FALSE(ParseFaultSpec("read_transient=2.0").ok());
  EXPECT_FALSE(ParseFaultSpec("enospc_after=64XB").ok());
  EXPECT_FALSE(ParseFaultSpec("no_equals_sign").ok());
  EXPECT_TRUE(ParseFaultSpec("").ok());  // empty spec: no faults
}

// ---------------------------------------------------------------------------
// FaultyEnv schedules
// ---------------------------------------------------------------------------

Status ReadOnce(Env* env, const std::string& path) {
  auto file = env->OpenRandomAccess(path);
  if (!file.ok()) return file.status();
  char buf[8];
  std::size_t got = 0;
  return (*file)->Read(0, sizeof(buf), buf, &got);
}

TEST(FaultyEnvTest, FailReadAtHitsExactlyTheNthCall) {
  MemEnv base;
  ASSERT_TRUE(base.WriteFile("/f", "payload").ok());
  FaultSpec spec;
  spec.fail_read_at = 3;
  FaultyEnv env(&base, spec);
  EXPECT_TRUE(ReadOnce(&env, "/f").ok());
  EXPECT_TRUE(ReadOnce(&env, "/f").ok());
  EXPECT_TRUE(ReadOnce(&env, "/f").IsIOError());  // the 3rd
  EXPECT_TRUE(ReadOnce(&env, "/f").ok());         // transient, not latched
  EXPECT_EQ(env.stats().read_faults, 1u);
}

TEST(FaultyEnvTest, PermanentReadFaultLatches) {
  MemEnv base;
  ASSERT_TRUE(base.WriteFile("/f", "payload").ok());
  FaultSpec spec;
  spec.fail_read_at = 2;
  spec.read_fail_permanent = true;
  FaultyEnv env(&base, spec);
  EXPECT_TRUE(ReadOnce(&env, "/f").ok());
  EXPECT_TRUE(ReadOnce(&env, "/f").IsIOError());
  EXPECT_TRUE(ReadOnce(&env, "/f").IsIOError());  // dead region stays dead
}

TEST(FaultyEnvTest, TransientProbabilityIsSeedDeterministic) {
  auto schedule = [](uint64_t seed) {
    MemEnv base;
    EXPECT_TRUE(base.WriteFile("/f", "payload").ok());
    FaultSpec spec;
    spec.read_transient_p = 0.5;
    spec.seed = seed;
    FaultyEnv env(&base, spec);
    std::vector<bool> failed;
    for (int i = 0; i < 32; ++i) failed.push_back(!ReadOnce(&env, "/f").ok());
    return failed;
  };
  EXPECT_EQ(schedule(7), schedule(7)) << "same seed, same fault schedule";
  EXPECT_NE(schedule(7), schedule(8));
}

TEST(FaultyEnvTest, PathFilterGatesInjection) {
  MemEnv base;
  ASSERT_TRUE(base.WriteFile("/idx/st_0", "x").ok());
  ASSERT_TRUE(base.WriteFile("/text", "y").ok());
  FaultSpec spec;
  spec.read_transient_p = 1.0;
  spec.path_filter = "/idx/";
  FaultyEnv env(&base, spec);
  EXPECT_TRUE(ReadOnce(&env, "/idx/st_0").IsIOError());
  EXPECT_TRUE(ReadOnce(&env, "/text").ok());
}

TEST(FaultyEnvTest, EnospcAfterByteBudget) {
  MemEnv base;
  FaultSpec spec;
  spec.enospc_after_bytes = 10;
  FaultyEnv env(&base, spec);
  auto file = env.NewWritable("/f");
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append("12345678").ok());    // 8 persisted
  Status s = (*file)->Append("12345678");           // would exceed 10
  EXPECT_TRUE(s.IsIOError());
  EXPECT_NE(s.ToString().find("no space"), std::string::npos);
  EXPECT_EQ(env.stats().enospc_faults, 1u);
  EXPECT_TRUE((*file)->Append("12").ok());          // still fits exactly
}

TEST(FaultyEnvTest, ShortWriteIsSilentAndHalf) {
  MemEnv base;
  FaultSpec spec;
  spec.short_write_p = 1.0;
  FaultyEnv env(&base, spec);
  auto file = env.NewWritable("/f");
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append("12345678").ok()) << "short write reports OK";
  ASSERT_TRUE((*file)->Close().ok());
  auto size = base.FileSize("/f");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 4u);
  EXPECT_EQ(env.stats().short_writes, 1u);
}

TEST(FaultyEnvTest, SimulateCrashDropsUnsyncedSuffix) {
  MemEnv base;
  FaultyEnv env(&base, FaultSpec{});
  {
    auto file = env.NewWritable("/synced_then_more");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("durable").ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Append("_volatile").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  {
    auto file = env.NewWritable("/never_synced");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("gone").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  ASSERT_TRUE(base.WriteFile("/preexisting", "untouched").ok());

  env.SimulateCrash();
  std::string content;
  ASSERT_TRUE(base.ReadFileToString("/synced_then_more", &content).ok());
  EXPECT_EQ(content, "durable") << "crash truncates to the synced prefix";
  EXPECT_FALSE(base.FileExists("/never_synced"));
  ASSERT_TRUE(base.ReadFileToString("/preexisting", &content).ok());
  EXPECT_EQ(content, "untouched") << "files predating the env are preserved";
  EXPECT_EQ(env.stats().files_damaged, 2u);
  EXPECT_TRUE(env.crashed());
  EXPECT_TRUE(ReadOnce(&env, "/preexisting").IsIOError())
      << "a crashed env fails every later operation";
}

TEST(FaultyEnvTest, TornWriteCrashesWithHalfDurable) {
  MemEnv base;
  FaultSpec spec;
  spec.torn_write_at = 2;
  FaultyEnv env(&base, spec);
  auto file = env.NewWritable("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("headerXX").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  Status s = (*file)->Append("ABCDEFGH");  // torn: 4 bytes land, then crash
  EXPECT_TRUE(s.IsIOError());
  EXPECT_TRUE(env.crashed());
  std::string content;
  ASSERT_TRUE(base.ReadFileToString("/f", &content).ok());
  EXPECT_EQ(content, "headerXXABCD") << "the torn prefix survives the crash";
}

TEST(FaultyEnvTest, AtomicWriteIsInvisibleUntilCommitSurvivesCrash) {
  MemEnv base;
  ASSERT_TRUE(base.WriteFile("/artifact", "old version").ok());
  FaultyEnv env(&base, FaultSpec{});
  // Committed atomic write: fully durable even though the env crashes next.
  ASSERT_TRUE(AtomicallyWriteFile(&env, "/artifact", "new version").ok());
  // Uncommitted writer: its temp file must vanish at the crash.
  auto writer = AtomicFileWriter::Open(&env, "/half_done");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append("in flight").ok());
  env.SimulateCrash();
  std::string content;
  ASSERT_TRUE(base.ReadFileToString("/artifact", &content).ok());
  EXPECT_EQ(content, "new version");
  EXPECT_FALSE(base.FileExists("/half_done"));
  EXPECT_FALSE(base.FileExists("/half_done.tmp"));
}

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, BackoffGrowsIsCappedAndDeterministic) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.enabled());
  double prev = 0;
  for (uint32_t attempt = 1; attempt <= 3; ++attempt) {
    double b = policy.BackoffSeconds(attempt);
    EXPECT_GT(b, 0.0);
    EXPECT_LE(b, policy.max_backoff_seconds);
    EXPECT_GE(b, prev * 0.5) << "jitter floor is half nominal";
    EXPECT_DOUBLE_EQ(b, policy.BackoffSeconds(attempt)) << "deterministic";
    prev = b;
  }
}

TEST(RetryPolicyTest, RetriesIOErrorUpToMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0;  // keep the test fast
  int calls = 0;
  uint64_t retries = 0;
  Status s = RunWithRetry(
      policy, nullptr,
      [&] {
        ++calls;
        return Status::IOError("still broken");
      },
      &retries);
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
}

TEST(RetryPolicyTest, SucceedsAfterTransientAndCountsRetries) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0;
  int calls = 0;
  uint64_t retries = 0;
  Status s = RunWithRetry(
      policy, nullptr,
      [&] {
        return ++calls < 3 ? Status::IOError("blip") : Status::OK();
      },
      &retries);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(retries, 2u);
}

TEST(RetryPolicyTest, NeverRetriesCorruption) {
  RetryPolicy policy;
  int calls = 0;
  uint64_t retries = 0;
  Status s = RunWithRetry(
      policy, nullptr,
      [&] {
        ++calls;
        return Status::Corruption("bad checksum");
      },
      &retries);
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(calls, 1) << "re-reading cannot fix wrong bytes";
  EXPECT_EQ(retries, 0u);
}

// ---------------------------------------------------------------------------
// Retry absorption in the readers
// ---------------------------------------------------------------------------

TEST(RetryAbsorptionTest, StringReaderAbsorbsATransientReadFault) {
  MemEnv base;
  std::string text(32 << 10, 'a');
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<char>('a' + i % 4);
  }
  ASSERT_TRUE(base.WriteFile("/text", text).ok());
  FaultSpec spec;
  spec.fail_read_at = 2;  // the second device read fails once
  FaultyEnv env(&base, spec);

  StringReaderOptions options;
  options.buffer_bytes = 4096;
  IoStats stats;
  auto reader = OpenStringReader(&env, "/text", options, &stats);
  ASSERT_TRUE(reader.ok());
  (*reader)->BeginScan();
  std::string out(text.size(), '\0');
  uint32_t got = 0;
  ASSERT_TRUE((*reader)
                  ->Fetch(0, static_cast<uint32_t>(out.size()), out.data(),
                          &got)
                  .ok())
      << "the retry policy must absorb the injected fault";
  EXPECT_EQ(got, text.size());
  EXPECT_EQ(out, text);
  EXPECT_GE(stats.read_retries, 1u);
}

TEST(RetryAbsorptionTest, DisabledPolicySurfacesTheFault) {
  MemEnv base;
  ASSERT_TRUE(base.WriteFile("/text", std::string(16 << 10, 'x')).ok());
  FaultSpec spec;
  spec.fail_read_at = 1;
  FaultyEnv env(&base, spec);
  StringReaderOptions options;
  options.buffer_bytes = 4096;
  options.retry.max_attempts = 1;  // retry off
  IoStats stats;
  auto reader = OpenStringReader(&env, "/text", options, &stats);
  ASSERT_TRUE(reader.ok());
  (*reader)->BeginScan();
  char buf[64];
  uint32_t got = 0;
  EXPECT_TRUE((*reader)->Fetch(0, sizeof(buf), buf, &got).IsIOError());
  EXPECT_EQ(stats.read_retries, 0u);
}

TEST(RetryAbsorptionTest, TileCacheAbsorbsATransientLoadFault) {
  MemEnv base;
  std::string text(256 << 10, 'g');
  ASSERT_TRUE(base.WriteFile("/text", text).ok());
  FaultSpec spec;
  spec.fail_read_at = 1;  // the very first tile load fails once
  FaultyEnv env(&base, spec);

  TileCacheOptions options;
  options.budget_bytes = 1 << 20;
  auto cache = TileCache::Open(&env, "/text", options);
  ASSERT_TRUE(cache.ok());
  std::string out(8192, '\0');
  std::size_t got = 0;
  ASSERT_TRUE((*cache)->ReadAt(0, out.size(), out.data(), &got).ok());
  EXPECT_EQ(got, out.size());
  EXPECT_EQ(out, text.substr(0, out.size()));
  EXPECT_GE((*cache)->stats().read_retries, 1u);
}

TEST(RetryAbsorptionTest, BuildUnderTransientFaultsIsByteIdentical) {
  // A build whose text reads randomly blip must absorb every fault and emit
  // exactly the bytes a fault-free build emits.
  MemEnv clean_env;
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 12000, 29);
  auto info = MaterializeText(&clean_env, "/text", Alphabet::Dna(), text);
  ASSERT_TRUE(info.ok());

  BuildOptions options;
  options.env = &clean_env;
  options.work_dir = "/ref";
  options.memory_budget = 2 << 20;
  options.input_buffer_bytes = 4096;
  EraBuilder reference(options);
  auto ref = reference.Build(*info);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  MemEnv faulty_base;
  ASSERT_TRUE(
      MaterializeText(&faulty_base, "/text", Alphabet::Dna(), text).ok());
  FaultSpec spec;
  // The builder serves every text read through one shared TileCache, so a
  // small text is a handful of tile loads; fail the first deterministically.
  spec.fail_read_at = 1;
  spec.path_filter = "/text";  // fault the scans, not the artifacts
  FaultyEnv faulty(&faulty_base, spec);
  BuildOptions faulted = options;
  faulted.env = &faulty;
  faulted.work_dir = "/out";
  EraBuilder builder(faulted);
  auto result = builder.Build(*info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(faulty.stats().read_faults, 0u)
      << "the drill injected nothing: " << faulty.stats().ToString();
  EXPECT_GE(result->stats.io.read_retries, faulty.stats().read_faults);

  for (const SubTreeEntry& entry : ref->index.subtrees()) {
    std::string want, have;
    ASSERT_TRUE(
        clean_env.ReadFileToString("/ref/" + entry.filename, &want).ok());
    ASSERT_TRUE(
        faulty_base.ReadFileToString("/out/" + entry.filename, &have).ok());
    EXPECT_EQ(want, have) << entry.filename;
  }
}

}  // namespace
}  // namespace era
