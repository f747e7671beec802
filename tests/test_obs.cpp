// clo::obs acceptance tests: registry semantics (counters, gauges,
// histograms, percentile math), exact merging of concurrent per-thread
// shards, JSON build/parse round-trips, Chrome trace-event output with
// balanced begin/end pairs, and an end-to-end pipeline smoke run whose
// --trace/--report artifacts must parse and contain every phase bucket.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "clo/shell/shell.hpp"
#include "clo/util/obs.hpp"
#include "clo/util/rng.hpp"
#include "clo/util/thread_pool.hpp"

namespace {

using namespace clo;

/// Every test runs with a clean, enabled obs layer and leaves the global
/// default (disabled, empty) behind.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::instance().reset();
    obs::reset_trace();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset_trace();
    obs::Registry::instance().reset();
  }
};

TEST_F(ObsTest, CountersAccumulateAndReset) {
  auto& reg = obs::Registry::instance();
  reg.add_counter("a");
  reg.add_counter("a", 4);
  reg.add_counter("b", 2);
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a"), 5u);
  EXPECT_EQ(snap.counters.at("b"), 2u);
  reg.reset();
  snap = reg.snapshot();
  EXPECT_EQ(snap.counters.count("a"), 0u);
}

TEST_F(ObsTest, GaugesAreLastWriteWins) {
  auto& reg = obs::Registry::instance();
  reg.set_gauge("g", 1.5);
  reg.set_gauge("g", -2.25);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("g"), -2.25);
}

TEST_F(ObsTest, HistogramSummaryStatsAreExact) {
  auto& reg = obs::Registry::instance();
  reg.define_histogram("h", {1.0, 2.0, 3.0});
  reg.observe("h", 0.5);
  reg.observe("h", 2.5);
  reg.observe("h", 9.0);  // overflow bucket
  const auto h = reg.snapshot().histograms.at("h");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 12.0);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 9.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  ASSERT_EQ(h.buckets.size(), 4u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.buckets[3], 1u);
}

TEST_F(ObsTest, PercentileInterpolatesWithinBuckets) {
  auto& reg = obs::Registry::instance();
  // Unit-width buckets with one sample centered in each: percentiles are
  // exactly linear in p.
  reg.define_histogram("p", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  for (int i = 0; i < 10; ++i) {
    reg.observe("p", i + 0.5);
  }
  const auto h = reg.snapshot().histograms.at("p");
  EXPECT_NEAR(h.percentile(50.0), 5.0, 1e-12);
  EXPECT_NEAR(h.percentile(90.0), 9.0, 1e-12);
  // The last occupied bucket interpolates toward the observed max (9.5),
  // not its nominal upper bound (10): p99 = 9 + 0.9 * (9.5 - 9) = 9.45,
  // which also keeps every percentile <= max. (The exact sample p99 under
  // linear interpolation is 9.455 — the old unclamped answer was 9.9.)
  EXPECT_NEAR(h.percentile(99.0), 9.45, 1e-12);
  // Ends clamp to the exact observed extremes.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 9.5);
}

TEST_F(ObsTest, PercentileSingleOccupiedBucketStaysWithinSamples) {
  auto& reg = obs::Registry::instance();
  // All samples land in one interior bucket (4, 5]. The interpolation
  // edges must tighten to the observed extremes, not the nominal bucket
  // edges — the old code reported values below min / above max here.
  reg.define_histogram("s", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  for (double v : {4.2, 4.4, 4.6}) reg.observe("s", v);
  const auto h = reg.snapshot().histograms.at("s");
  double prev = h.min;
  for (double p = 0.0; p <= 100.0; p += 5.0) {
    const double q = h.percentile(p);
    EXPECT_GE(q, 4.2) << "p=" << p;
    EXPECT_LE(q, 4.6) << "p=" << p;
    EXPECT_GE(q, prev) << "p=" << p;  // monotone in p
    prev = q;
  }
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 4.2);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 4.6);
}

TEST_F(ObsTest, PercentileBoundaryRanks) {
  auto& reg = obs::Registry::instance();
  reg.define_histogram("b", {1, 2, 3, 4});
  for (double v : {0.5, 1.5, 2.5, 3.5}) reg.observe("b", v);
  const auto h = reg.snapshot().histograms.at("b");
  // Rank exactly on a bucket boundary interpolates to that bucket's upper
  // edge, and every answer stays inside [min, max].
  EXPECT_DOUBLE_EQ(h.percentile(25.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(75.0), 3.0);
  for (double p = 0.0; p <= 100.0; p += 1.0) {
    EXPECT_GE(h.percentile(p), 0.5) << "p=" << p;
    EXPECT_LE(h.percentile(p), 3.5) << "p=" << p;
  }
}

TEST_F(ObsTest, PercentilePropertyWithinBucketWidthOfExact) {
  // Property: against random samples in unit-width buckets, the
  // interpolated percentile sits within one bucket width of the exact
  // sample percentile, is monotone in p, and never leaves [min, max].
  auto& reg = obs::Registry::instance();
  Rng rng(123);
  const std::vector<double> bounds = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (int trial = 0; trial < 20; ++trial) {
    const std::string name = "prop" + std::to_string(trial);
    reg.define_histogram(name, bounds);
    const int n = 1 + static_cast<int>(rng.next_below(200));
    std::vector<double> samples(n);
    for (auto& s : samples) s = rng.next_double() * 12.0;  // overflow too
    for (double s : samples) reg.observe(name, s);
    std::sort(samples.begin(), samples.end());

    const auto h = reg.snapshot().histograms.at(name);
    double prev = samples.front();
    for (double p = 0.0; p <= 100.0; p += 2.5) {
      const double q = h.percentile(p);
      EXPECT_GE(q, samples.front()) << "trial " << trial << " p=" << p;
      EXPECT_LE(q, samples.back()) << "trial " << trial << " p=" << p;
      EXPECT_GE(q, prev - 1e-12) << "trial " << trial << " p=" << p;
      prev = q;
      // The sample at the interpolated rank shares the answer's bucket
      // (the overflow bucket spans [10, max], whose width max-10 is also
      // bounded by the widest unit bucket only when samples cap at 12 —
      // use 2.0 to cover it).
      const double rank = p / 100.0 * n;
      std::size_t idx = 0;
      if (rank > 0.0) {
        idx = std::min<std::size_t>(
            n - 1, static_cast<std::size_t>(std::ceil(rank) - 1.0));
      }
      EXPECT_NEAR(q, samples[idx], 2.0)
          << "trial " << trial << " p=" << p << " n=" << n;
    }
  }
}

TEST_F(ObsTest, JsonNumbersRoundTripBitExactly) {
  // Doubles must survive dump -> parse without precision loss (the old
  // "%.6g"-style formatting truncated report numbers).
  const double values[] = {
      0.1,
      1.0 / 3.0,
      1e-300,
      2.5e300,
      3.141592653589793,
      123456789.123456789,
      -7.000000000000001,
  };
  obs::Json arr = obs::Json::array();
  for (double v : values) arr.push_back(obs::Json(v));
  for (int indent : {0, 2}) {
    const auto parsed = obs::Json::parse(arr.dump(indent));
    ASSERT_EQ(parsed.size(), std::size(values));
    for (std::size_t i = 0; i < std::size(values); ++i) {
      EXPECT_EQ(parsed.at(i).as_double(), values[i]) << "indent " << indent;
    }
  }
}

TEST_F(ObsTest, ConcurrentCountsMergeExactly) {
  auto& reg = obs::Registry::instance();
  util::ThreadPool pool(8);
  constexpr int kTasks = 64;
  constexpr int kPerTask = 250;
  util::parallel_for(&pool, kTasks, [&](std::size_t) {
    for (int i = 0; i < kPerTask; ++i) {
      reg.add_counter("concurrent");
      reg.observe("obs", 1.0);
    }
  });
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("concurrent"),
            static_cast<std::uint64_t>(kTasks) * kPerTask);
  EXPECT_EQ(snap.histograms.at("obs").count,
            static_cast<std::uint64_t>(kTasks) * kPerTask);
  EXPECT_DOUBLE_EQ(snap.histograms.at("obs").sum, kTasks * kPerTask * 1.0);
}

TEST_F(ObsTest, DisabledRecordsNothing) {
  obs::set_enabled(false);
  CLO_OBS_COUNT("off", 1);
  CLO_OBS_OBSERVE("off", 1.0);
  {
    CLO_TRACE_SPAN("off");
  }
  EXPECT_EQ(obs::Registry::instance().snapshot().counters.count("off"), 0u);
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST_F(ObsTest, JsonRoundTrip) {
  obs::Json doc = obs::Json::object();
  doc["name"] = obs::Json(std::string("value \"quoted\"\n"));
  doc["count"] = obs::Json(std::uint64_t{1234567});
  doc["pi"] = obs::Json(3.25);
  doc["flag"] = obs::Json(true);
  obs::Json arr = obs::Json::array();
  arr.push_back(obs::Json(1));
  arr.push_back(obs::Json(-2.5));
  doc["items"] = arr;

  const auto parsed = obs::Json::parse(doc.dump(2));
  EXPECT_EQ(parsed.find("name")->as_string(), "value \"quoted\"\n");
  EXPECT_DOUBLE_EQ(parsed.find("count")->as_double(), 1234567.0);
  EXPECT_DOUBLE_EQ(parsed.find("pi")->as_double(), 3.25);
  EXPECT_TRUE(parsed.find("flag")->as_bool());
  ASSERT_EQ(parsed.find("items")->size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.find("items")->at(1).as_double(), -2.5);
  EXPECT_EQ(parsed.find("missing"), nullptr);
  EXPECT_THROW(obs::Json::parse("{\"unterminated\": "), std::runtime_error);
}

TEST_F(ObsTest, TraceEventsBalanceAndParse) {
  {
    CLO_TRACE_SPAN("outer");
    CLO_TRACE_SPAN("inner");
  }
  util::ThreadPool pool(4);
  util::parallel_for(&pool, 16, [&](std::size_t) {
    CLO_TRACE_SPAN("worker");
  });
#if defined(CLO_OBS_DISABLE)
  // Span sites are compiled out: the trace document is valid but empty.
  constexpr std::size_t kExpectedEvents = 0;
#else
  constexpr std::size_t kExpectedEvents = 2u * (2 + 16);
#endif
  EXPECT_EQ(obs::trace_event_count(), kExpectedEvents);

  std::ostringstream os;
  obs::write_trace(os);
  const auto doc = obs::Json::parse(os.str());
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), kExpectedEvents);
  int balance = 0;
  std::uint64_t begins = 0, ends = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const auto& e = events->at(i);
    const std::string ph = e.find("ph")->as_string();
    ASSERT_TRUE(ph == "B" || ph == "E");
    balance += ph == "B" ? 1 : -1;
    (ph == "B" ? begins : ends) += 1;
    EXPECT_FALSE(e.find("name")->as_string().empty());
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    EXPECT_GE(e.find("ts")->as_double(), 0.0);
  }
  EXPECT_EQ(balance, 0);
  EXPECT_EQ(begins, ends);
}

std::vector<std::string> profile_paths() {
  std::vector<std::string> paths;
  for (const auto& node : obs::build_profile().nodes) {
    paths.push_back(node.path);
  }
  return paths;
}

TEST_F(ObsTest, PoolTaskSpansNestUnderThePostingSpan) {
  util::ThreadPool pool(4);
  {
    CLO_TRACE_SPAN("outer");
    util::parallel_for(&pool, 16, [&](std::size_t) {
      CLO_TRACE_SPAN("worker");
      util::parallel_for(&pool, 2, [](std::size_t) {  // runs inline
        CLO_TRACE_SPAN("leaf");
      });
    });
  }
  util::parallel_for(&pool, 4, [](std::size_t) { CLO_TRACE_SPAN("rootless"); });
#if defined(CLO_OBS_DISABLE)
  EXPECT_TRUE(profile_paths().empty());
#else
  const auto profile = obs::build_profile();
  std::vector<std::string> paths;
  for (const auto& node : profile.nodes) {
    paths.push_back(node.path);
    if (node.path == "outer/worker") {
      EXPECT_EQ(node.count, 16u);
    }
    if (node.path == "outer/worker/leaf") {
      EXPECT_EQ(node.count, 32u);
    }
  }
  EXPECT_EQ(paths, (std::vector<std::string>{"outer", "outer/worker",
                                             "outer/worker/leaf",
                                             "rootless"}));
#endif
}

TEST_F(ObsTest, ProfileHasTheSamePathsAtEveryThreadCount) {
  std::vector<std::vector<std::string>> runs;
  for (int threads : {1, 4}) {
    obs::reset_trace();
    shell::Shell sh;
    sh.set_threads(threads);
    std::ostringstream out;
    sh.execute("gen c17", out);
    sh.execute("tune 8 2", out);
    ASSERT_FALSE(sh.last_failed()) << out.str();
    runs.push_back(profile_paths());
  }
  EXPECT_EQ(runs[0], runs[1]);
#if !defined(CLO_OBS_DISABLE)
  // The restart loop this nests is under the optimize phase, not the root.
  const auto& paths = runs[1];
  EXPECT_NE(std::find(paths.begin(), paths.end(),
                      "pipeline.optimize/optimize.batch"),
            paths.end());
  for (const auto& path : paths) {
    EXPECT_NE(path.rfind("optimize.", 0), 0u) << path;
  }
#endif
}

TEST_F(ObsTest, PipelineSmokeWritesTraceAndReport) {
  const std::string trace_path = "obs_smoke_trace.json";
  const std::string report_path = "obs_smoke_report.json";
  {
    shell::Shell sh;
    sh.set_threads(2);
    sh.set_trace_path(trace_path);
    sh.set_report_path(report_path);
    std::ostringstream out;
    sh.execute("gen c17", out);
    sh.execute("tune 16 2", out);
    ASSERT_FALSE(sh.last_failed()) << out.str();
  }  // ~Shell writes the trace

  // Report: parses, and carries every phase bucket plus the evaluator,
  // loss-series, and per-restart payloads the ISSUE promises.
  std::ifstream rf(report_path);
  ASSERT_TRUE(static_cast<bool>(rf));
  std::stringstream rbuf;
  rbuf << rf.rdbuf();
  const auto report = obs::Json::parse(rbuf.str());
  EXPECT_EQ(report.find("schema")->as_string(), "clo.report.v1");
  const auto* phases = report.find("phase_seconds");
  ASSERT_NE(phases, nullptr);
  for (const char* phase : {"dataset", "surrogate_train", "diffusion_train",
                            "optimize", "validate"}) {
    ASSERT_NE(phases->find(phase), nullptr) << phase;
    EXPECT_GE(phases->find(phase)->as_double(), 0.0);
  }
  const auto* evaluator = report.find("evaluator");
  ASSERT_NE(evaluator, nullptr);
  EXPECT_GT(evaluator->find("queries")->as_double(), 0.0);
  EXPECT_GE(evaluator->find("hit_rate")->as_double(), 0.0);
  EXPECT_LE(evaluator->find("hit_rate")->as_double(), 1.0);
  ASSERT_NE(report.find("surrogate"), nullptr);
  EXPECT_GT(report.find("surrogate")->find("loss_series")->size(), 0u);
  ASSERT_NE(report.find("diffusion"), nullptr);
  EXPECT_GT(report.find("diffusion")->find("loss_series")->size(), 0u);
  const auto* restarts = report.find("restarts");
  ASSERT_NE(restarts, nullptr);
  ASSERT_EQ(restarts->size(), 2u);
  for (std::size_t i = 0; i < restarts->size(); ++i) {
    EXPECT_NE(restarts->at(i).find("discrepancy"), nullptr);
    EXPECT_GT(restarts->at(i).find("area_um2")->as_double(), 0.0);
  }
  ASSERT_NE(report.find("metrics"), nullptr);

  // Trace: parses, is non-empty, balanced, and covers the pipeline phases.
  std::ifstream tf(trace_path);
  ASSERT_TRUE(static_cast<bool>(tf));
  std::stringstream tbuf;
  tbuf << tf.rdbuf();
  const auto trace = obs::Json::parse(tbuf.str());
  const auto* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int balance = 0;
  bool saw_label[2] = {false, false};
  for (std::size_t i = 0; i < events->size(); ++i) {
    const std::string ph = events->at(i).find("ph")->as_string();
    balance += ph == "B" ? 1 : -1;
    const std::string name = events->at(i).find("name")->as_string();
    if (name == "pipeline.optimize") saw_label[0] = true;
    if (name == "dataset.label") saw_label[1] = true;
  }
  EXPECT_EQ(balance, 0);
#if !defined(CLO_OBS_DISABLE)
  // With instrumentation compiled in, the trace covers the pipeline phases.
  ASSERT_GT(events->size(), 0u);
  EXPECT_TRUE(saw_label[0]);
  EXPECT_TRUE(saw_label[1]);
#else
  (void)saw_label;
#endif

  std::remove(trace_path.c_str());
  std::remove(report_path.c_str());
}

}  // namespace
