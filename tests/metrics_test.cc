// Metrics registry, histogram, tracing, and exporter tests.
//
// Pins the observability substrate from common/metrics.h: bucket semantics
// (upper-inclusive, Prometheus `le`), quantile estimation against a
// sorted-sample oracle, counter sharding under thread contention (run under
// TSan in CI), trace ring wraparound, exporter round-trips, and the engine's
// registry counters as its only stats store.

#include "common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "era/parallel_builder.h"
#include "io/mem_env.h"
#include "query/query_engine.h"
#include "query/query_workload.h"
#include "tests/test_util.h"

namespace era {
namespace {

// ---------------------------------------------------------------------------
// Histogram buckets and quantiles
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundsAreUpperInclusive) {
  Histogram histogram(std::vector<double>{1.0, 2.0, 4.0});
  // A trailing +inf bucket is appended.
  ASSERT_EQ(histogram.bounds().size(), 4u);
  EXPECT_TRUE(std::isinf(histogram.bounds().back()));

  // Exactly-on-boundary values land in the bucket whose bound they equal
  // (value <= bound), matching Prometheus `le` and the admission layer's
  // original wait histogram.
  EXPECT_EQ(histogram.BucketFor(0.0), 0u);
  EXPECT_EQ(histogram.BucketFor(1.0), 0u);
  EXPECT_EQ(histogram.BucketFor(1.0000001), 1u);
  EXPECT_EQ(histogram.BucketFor(2.0), 1u);
  EXPECT_EQ(histogram.BucketFor(4.0), 2u);
  EXPECT_EQ(histogram.BucketFor(4.1), 3u);
  EXPECT_EQ(histogram.BucketFor(1e12), 3u);
}

TEST(HistogramTest, ObserveFillsTheRightBuckets) {
  Histogram histogram(std::vector<double>{1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 100.0}) {
    histogram.Observe(v);
  }
  HistogramSnapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(snap.counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(snap.counts[2], 1u);  // 3.0
  EXPECT_EQ(snap.counts[3], 2u);  // 5.0, 100.0
  EXPECT_EQ(snap.count, 7u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 5.0 + 100.0);
}

TEST(HistogramTest, LogBucketsCoverTheRequestedRange) {
  std::vector<double> bounds = Histogram::LogBuckets(1e-6, 16.0, 2.0);
  ASSERT_GE(bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  // The ladder is terminated by +inf; the finite rungs are geometric and
  // the last one is within one factor of the requested max.
  EXPECT_TRUE(std::isinf(bounds.back()));
  const std::size_t finite = bounds.size() - 1;
  EXPECT_GE(bounds[finite - 1] * 2.0, 16.0);
  for (std::size_t i = 1; i < finite; ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
    EXPECT_NEAR(bounds[i] / bounds[i - 1], 2.0, 1e-9);
  }
}

TEST(HistogramTest, QuantileMatchesSortedSampleOracle) {
  // Fine geometric buckets (5% steps) so interpolation error is bounded by
  // one bucket width; the oracle is the exact order statistic.
  Histogram histogram(Histogram::LogBuckets(1e-4, 10.0, 1.05));
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(-4.0, 1.0);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    double v = std::min(dist(rng), 9.0);
    samples.push_back(v);
    histogram.Observe(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.99}) {
    double oracle =
        samples[static_cast<std::size_t>(q * (samples.size() - 1))];
    double estimate = histogram.Quantile(q);
    // The estimate must land within one bucket of the oracle: at 5% bucket
    // steps that is <= ~10% relative error.
    EXPECT_NEAR(estimate, oracle, oracle * 0.11)
        << "q=" << q << " oracle=" << oracle << " estimate=" << estimate;
  }
}

TEST(HistogramTest, QuantileOnEmptyHistogramIsNan) {
  Histogram histogram;
  EXPECT_TRUE(std::isnan(histogram.Quantile(0.5)));
}

// ---------------------------------------------------------------------------
// Counter sharding under contention (runs under TSan in CI)
// ---------------------------------------------------------------------------

TEST(CounterTest, EightThreadContentionLosesNothing) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(CounterTest, IncrementByDelta) {
  Counter counter;
  counter.Increment(41);
  counter.Increment();
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(GaugeTest, SetAddFromManyThreads) {
  Gauge gauge;
  gauge.Set(100.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < 1000; ++i) gauge.Add(1.0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(gauge.Value(), 100.0 + 4 * 1000);
}

TEST(HistogramTest, ConcurrentObserveLosesNothing) {
  Histogram histogram(std::vector<double>{0.5, 1.5, 2.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Observe(static_cast<double>(t % 3));  // 0, 1, or 2
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

// ---------------------------------------------------------------------------
// Registry and exporters
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, GetReturnsTheSameSeriesForSameNameAndLabels) {
  MetricsRegistry registry;
  auto a = registry.GetCounter("era_test_total", "help");
  auto b = registry.GetCounter("era_test_total", "help");
  EXPECT_EQ(a.get(), b.get());
  auto labeled =
      registry.GetCounter("era_test_total", "help", {{"engine", "1"}});
  EXPECT_NE(a.get(), labeled.get());
  a->Increment(3);
  labeled->Increment(5);
  // Two series of one family, distinguished by labels.
  int matches = 0;
  for (const MetricSample& sample : registry.Snapshot()) {
    if (sample.name != "era_test_total") continue;
    ++matches;
    if (sample.labels.empty()) {
      EXPECT_DOUBLE_EQ(sample.value, 3.0);
    } else {
      ASSERT_EQ(sample.labels.size(), 1u);
      EXPECT_EQ(sample.labels[0].first, "engine");
      EXPECT_DOUBLE_EQ(sample.value, 5.0);
    }
  }
  EXPECT_EQ(matches, 2);
}

TEST(MetricsRegistryTest, CollectorsContributeAndCanBeRemoved) {
  MetricsRegistry registry;
  uint64_t id = registry.AddCollector([](std::vector<MetricSample>* out) {
    MetricSample sample;
    sample.name = "era_collected_items";
    sample.help = "from a collector";
    sample.kind = MetricKind::kGauge;
    sample.value = 7;
    out->push_back(std::move(sample));
  });
  auto has_collected = [&registry] {
    for (const MetricSample& sample : registry.Snapshot()) {
      if (sample.name == "era_collected_items") return true;
    }
    return false;
  };
  EXPECT_TRUE(has_collected());
  registry.RemoveCollector(id);
  EXPECT_FALSE(has_collected());
}

TEST(MetricsRegistryTest, PrometheusExportIsWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("era_reads_total", "Total reads")->Increment(12);
  registry.GetGauge("era_resident_bytes", "Resident bytes")->Set(4096);
  auto histogram = registry.GetHistogram("era_wait_seconds", "Queue wait",
                                         {}, {0.1, 1.0});
  histogram->Observe(0.05);
  histogram->Observe(0.5);
  histogram->Observe(10.0);

  const std::string text = registry.ExportPrometheus();
  // One HELP and one TYPE line per family.
  for (const char* name :
       {"era_reads_total", "era_resident_bytes", "era_wait_seconds"}) {
    const std::string help = std::string("# HELP ") + name + " ";
    const std::string type = std::string("# TYPE ") + name + " ";
    EXPECT_NE(text.find(help), std::string::npos) << name;
    EXPECT_EQ(text.find(help), text.rfind(help)) << "duplicate HELP " << name;
    EXPECT_EQ(text.find(type), text.rfind(type)) << "duplicate TYPE " << name;
  }
  EXPECT_NE(text.find("# TYPE era_reads_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE era_resident_bytes gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE era_wait_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("era_reads_total 12"), std::string::npos);
  // Histogram buckets are cumulative and end with +Inf == count.
  EXPECT_NE(text.find("era_wait_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("era_wait_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("era_wait_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("era_wait_seconds_count 3"), std::string::npos);
  // Exposition format: every non-comment line is "name{labels} value" or
  // "name value"; no blank metric names, no negative counter values.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    EXPECT_NE(value[0], '-') << "negative sample: " << line;
  }
}

TEST(MetricsRegistryTest, JsonExportRoundTripsValues) {
  MetricsRegistry registry;
  registry.GetCounter("era_reads_total", "Total reads")->Increment(12);
  auto histogram =
      registry.GetHistogram("era_wait_seconds", "Queue wait", {}, {0.1, 1.0});
  histogram->Observe(0.5);

  const std::string json = registry.ExportJson();
  // Minimal structural validation: balanced braces/brackets and the
  // expected fields present with the expected values.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"era_reads_total\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"era_wait_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"value\":12"), std::string::npos);
}

TEST(MetricsRegistryTest, RenderLabelsEscapesAndOrders) {
  EXPECT_EQ(RenderLabels({}), "");
  EXPECT_EQ(RenderLabels({{"a", "1"}, {"b", "x"}}), "a=\"1\",b=\"x\"");
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, RingWrapsKeepingTheNewestTraces) {
  TraceRecorderOptions options;
  options.ring_capacity = 4;
  TraceRecorder recorder(options);
  for (int i = 0; i < 10; ++i) {
    auto trace = recorder.StartTrace("count", /*client_id=*/0);
    { TraceSpan span(trace.get(), "match"); }
    recorder.FinishTrace(trace, Status::OK());
  }
  EXPECT_EQ(recorder.traces_started(), 10u);
  EXPECT_EQ(recorder.traces_completed(), 10u);
  auto recent = recorder.Recent();
  ASSERT_EQ(recent.size(), 4u);
  // Oldest first, and only the newest four survive the wrap.
  for (std::size_t i = 1; i < recent.size(); ++i) {
    EXPECT_GT(recent[i]->id, recent[i - 1]->id);
  }
  EXPECT_EQ(recent.back()->id, recent.front()->id + 3);
}

TEST(TraceRecorderTest, SlowRingAndSpanCap) {
  TraceRecorderOptions options;
  options.slow_query_seconds = 0.001;
  options.log_slow = false;
  options.max_spans_per_trace = 2;
  TraceRecorder recorder(options);
  auto trace = recorder.StartTrace("locate", /*client_id=*/3);
  for (int i = 0; i < 5; ++i) {
    TraceSpan span(trace.get(), "subtree_open");
  }
  // Push the trace past the slow threshold deterministically.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  recorder.FinishTrace(trace, Status::OK());
  EXPECT_EQ(recorder.slow_traces(), 1u);
  auto slow = recorder.Slow();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0]->spans.size(), 2u);
  EXPECT_EQ(slow[0]->dropped_spans, 3u);
  EXPECT_EQ(slow[0]->client_id, 3u);
}

TEST(TraceRecorderTest, NullTraceSpansAreNoOps) {
  TraceSpan span(nullptr, "match");
  span.set_note("cache_hit");  // must not crash
}

TEST(TraceRecorderTest, ChromeTracingExportIsBalancedJson) {
  TraceRecorder recorder;
  auto trace = recorder.StartTrace("count", /*client_id=*/0);
  {
    TraceSpan outer(trace.get(), "match");
    TraceSpan inner(trace.get(), "subtree_open");
    inner.set_note("cache_miss");
  }
  recorder.FinishTrace(trace, Status::OK());
  const std::string json = recorder.ExportChromeTracing();
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"match\""), std::string::npos);
  EXPECT_NE(json.find("\"subtree_open\""), std::string::npos);
  EXPECT_NE(json.find("cache_miss"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Phase profiler
// ---------------------------------------------------------------------------

TEST(PhaseProfilerTest, RecordsMergeByPhaseAndWorker) {
  PhaseProfiler profiler;
  profiler.Record("prepare", 0, 1.0);
  profiler.Record("prepare", 0, 0.5);
  profiler.Record("prepare", 1, 2.0);
  profiler.Record("build_subtree", 1, 3.0, /*calls=*/4);
  auto entries = profiler.Entries();
  ASSERT_EQ(entries.size(), 3u);
  // First-recorded phase order, workers ascending within a phase.
  EXPECT_EQ(entries[0].phase, "prepare");
  EXPECT_EQ(entries[0].worker, 0u);
  EXPECT_DOUBLE_EQ(entries[0].seconds, 1.5);
  EXPECT_EQ(entries[0].calls, 2u);
  EXPECT_EQ(entries[1].worker, 1u);
  EXPECT_EQ(entries[2].phase, "build_subtree");
  EXPECT_EQ(entries[2].calls, 4u);

  PhaseProfiler other;
  other.Merge(entries);
  other.Record("prepare", 0, 0.5);
  auto merged = other.Entries();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_DOUBLE_EQ(merged[0].seconds, 2.0);
}

TEST(PhaseProfilerTest, FormatPhaseTableRendersRows) {
  EXPECT_EQ(FormatPhaseTable({}), "");
  PhaseProfiler profiler;
  profiler.Record("vertical_partition", 0, 0.25);
  profiler.Record("prepare", 0, 1.0);
  profiler.Record("prepare", 1, 2.0);
  const std::string table = FormatPhaseTable(profiler.Entries());
  EXPECT_NE(table.find("vertical_partition"), std::string::npos);
  EXPECT_NE(table.find("prepare"), std::string::npos);
  EXPECT_EQ(table.back(), '\n');
}

// ---------------------------------------------------------------------------
// Engine integration: registry-backed stats and span nesting
// ---------------------------------------------------------------------------

class MetricsEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text_ = testing::RepetitiveText(Alphabet::Dna(), 6000, 23);
    auto info = MaterializeText(&env_, "/text", Alphabet::Dna(), text_);
    ASSERT_TRUE(info.ok());
    BuildOptions options;
    options.env = &env_;
    options.work_dir = "/idx";
    options.memory_budget = 256 << 10;  // several sub-trees
    options.input_buffer_bytes = 4096;
    ParallelBuilder builder(options, 1);
    auto result = builder.Build(*info);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  MemEnv env_;
  std::string text_;
};

/// Values of `engine`'s series in `registry`, keyed by metric name.
std::map<std::string, double> EngineSeries(MetricsRegistry& registry,
                                           QueryEngine& engine) {
  const MetricLabels& labels = engine.admission().options().metric_labels;
  std::map<std::string, double> series;
  for (const MetricSample& sample : registry.Snapshot()) {
    if (sample.labels == labels) series[sample.name] = sample.value;
  }
  return series;
}

TEST_F(MetricsEngineTest, RegistryCountersAreTheEngineStats) {
  QueryWorkloadOptions workload_options;
  workload_options.num_patterns = 400;
  const std::vector<std::string> patterns =
      SamplePatternWorkload(text_, workload_options);
  ASSERT_EQ(patterns.size(), 400u);

  MetricsRegistry registry;  // private registry: no Global() pollution
  QueryEngineOptions options;
  options.registry = &registry;
  auto engine = QueryEngine::Open(&env_, "/idx", options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // One thread: multi-threaded replay makes cache hit/miss attribution
  // timing-dependent, and this test pins exact values.
  auto replay = ReplayWorkload(engine->get(), patterns, 1, workload_options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();

  const QueryStats stats = (*engine)->stats();
  const IoStats io = (*engine)->io();
  EXPECT_EQ(stats.queries, 400u);
  const std::map<std::string, double> series =
      EngineSeries(registry, **engine);
  for (const QueryStatsField& field : QueryStatsFields()) {
    ASSERT_EQ(series.count(field.name), 1u) << field.name;
    EXPECT_EQ(series.at(field.name),
              static_cast<double>(stats.*(field.member)))
        << field.name;
  }
  for (const IoStatsField& field : IoStatsFields()) {
    ASSERT_EQ(series.count(field.name), 1u) << field.name;
    EXPECT_EQ(series.at(field.name), static_cast<double>(io.*(field.member)))
        << field.name;
  }

  // Brute-force checksum over the text: a Count adds the number of
  // overlapping occurrences, a Locate adds offset + 1 of its smallest
  // locate_limit occurrences (ReplayWorkload's rule). A smallest-first
  // Locate decodes every occurrence before it selects.
  uint64_t expected = 0;
  uint64_t located = 0;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    std::vector<uint64_t> offsets;
    for (std::size_t pos = text_.find(patterns[i]); pos != std::string::npos;
         pos = text_.find(patterns[i], pos + 1)) {
      offsets.push_back(pos);
    }
    if (i % workload_options.locate_every == 0) {
      const std::size_t kept =
          std::min(offsets.size(), workload_options.locate_limit);
      for (std::size_t j = 0; j < kept; ++j) expected += offsets[j] + 1;
      located += offsets.size();
    } else {
      expected += offsets.size();
    }
  }
  EXPECT_EQ(replay->occurrence_checksum, expected);
  EXPECT_EQ(stats.leaves_enumerated, located);
  // Every layer the replay drives left counts behind: child probes, label
  // reads, sub-tree loads and cache hits.
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.label_fetches, 0u);
  EXPECT_GT(io.bytes_read, 0u);
  EXPECT_GT(io.cache_misses, 0u);
  EXPECT_GT(io.cache_hits, 0u);

  // A second engine on the same registry gets its own series, all zero.
  auto second = QueryEngine::Open(&env_, "/idx", options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const QueryStats second_stats = (*second)->stats();
  const IoStats second_io = (*second)->io();
  const std::map<std::string, double> second_series =
      EngineSeries(registry, **second);
  for (const QueryStatsField& field : QueryStatsFields()) {
    EXPECT_EQ(second_stats.*(field.member), 0u) << field.name;
    ASSERT_EQ(second_series.count(field.name), 1u) << field.name;
    EXPECT_EQ(second_series.at(field.name), 0.0) << field.name;
  }
  for (const IoStatsField& field : IoStatsFields()) {
    EXPECT_EQ(second_io.*(field.member), 0u) << field.name;
    ASSERT_EQ(second_series.count(field.name), 1u) << field.name;
    EXPECT_EQ(second_series.at(field.name), 0.0) << field.name;
  }
}

TEST_F(MetricsEngineTest, TracedQueriesRecordNestedSpans) {
  QueryEngineOptions options;
  MetricsRegistry registry;
  options.registry = &registry;
  options.trace.enabled = true;
  options.trace.sample_every = 1;
  auto engine = QueryEngine::Open(&env_, "/idx", options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_NE((*engine)->tracer(), nullptr);

  std::string pattern = text_.substr(100, 12);
  ASSERT_TRUE((*engine)->Count(pattern).ok());
  ASSERT_TRUE((*engine)->Locate(pattern, 50).ok());

  TraceRecorder* tracer = (*engine)->tracer();
  EXPECT_EQ(tracer->traces_completed(), 2u);
  auto recent = tracer->Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0]->label, "count");
  EXPECT_EQ(recent[1]->label, "locate");

  for (const auto& trace : recent) {
    EXPECT_EQ(trace->status, "OK");
    EXPECT_GT(trace->total_us, 0.0);
    bool saw_admission = false, saw_match = false;
    for (const TraceSpanRecord& span : trace->spans) {
      // Every span nests inside the request: starts at or after zero and
      // ends at or before the trace end (tolerance for clock rounding).
      EXPECT_GE(span.start_us, 0.0);
      EXPECT_LE(span.start_us + span.dur_us, trace->total_us + 50.0)
          << span.name;
      EXPECT_GE(span.depth, 0);
      if (std::string(span.name) == "admission") saw_admission = true;
      if (std::string(span.name) == "match") saw_match = true;
    }
    EXPECT_TRUE(saw_admission) << trace->label;
    EXPECT_TRUE(saw_match) << trace->label;
  }

  // The locate trace collected leaves.
  bool saw_collect = false;
  for (const TraceSpanRecord& span : recent[1]->spans) {
    if (std::string(span.name) == "collect") saw_collect = true;
  }
  EXPECT_TRUE(saw_collect);

  // Sampling: every second request traced when sample_every == 2.
  QueryEngineOptions sampled = options;
  sampled.trace.sample_every = 2;
  auto engine2 = QueryEngine::Open(&env_, "/idx", sampled);
  ASSERT_TRUE(engine2.ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE((*engine2)->Count(pattern).ok());
  }
  EXPECT_EQ((*engine2)->tracer()->traces_completed(), 3u);
}

}  // namespace
}  // namespace era
