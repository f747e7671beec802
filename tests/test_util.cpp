#include <gtest/gtest.h>

#include <atomic>
#include <clocale>
#include <cmath>
#include <limits>
#include <regex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clo/util/cancel.hpp"
#include "clo/util/cli.hpp"
#include "clo/util/csv.hpp"
#include "clo/util/fault.hpp"
#include "clo/util/log.hpp"
#include "clo/util/numeric.hpp"
#include "clo/util/obs.hpp"
#include "clo/util/rng.hpp"
#include "clo/util/stats.hpp"
#include "clo/util/timer.hpp"

namespace {

using namespace clo;
using util::format_double;
using util::parse_double;
using util::parse_int;
using util::parse_uint64;

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAll) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.next_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(5);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, ForkIndependent) {
  Rng a(1);
  Rng c = a.fork();
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, SetStateRejectsAllZeroState) {
  Rng a(1);
  EXPECT_THROW(a.set_state(Rng::State{}), std::invalid_argument);
  Rng b(1);
  a.set_state(b.state());
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Stats, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_NEAR(geomean({1, 100}), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, Stddev) {
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(stddev({5}), 0.0);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Stats, PearsonPerfect) {
  EXPECT_NEAR(pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(Stats, SpearmanMonotone) {
  // Any monotone map gives rank correlation 1.
  EXPECT_NEAR(spearman({1, 2, 3, 4}, {10, 100, 1000, 10000}), 1.0, 1e-12);
  EXPECT_NEAR(spearman({1, 2, 3, 4}, {4, 3, 2, 1}), -1.0, 1e-12);
}

TEST(Stats, SpearmanTiesHandled) {
  const double r = spearman({1, 1, 2, 3}, {1, 1, 2, 3});
  EXPECT_NEAR(r, 1.0, 1e-12);
}

TEST(Csv, EscapesAndWrites) {
  CsvWriter w({"a", "b"});
  w.add_row({"x,y", "plain"});
  w.add_row({"with \"quote\"", "1"});
  const std::string s = w.to_string();
  EXPECT_NE(s.find("\"x,y\""), std::string::npos);
  EXPECT_NE(s.find("\"with \"\"quote\"\"\""), std::string::npos);
}

TEST(Csv, RowValues) {
  CsvWriter w({"v"});
  w.add_row_values({1.23456}, 2);
  EXPECT_NE(w.to_string().find("1.23"), std::string::npos);
}

TEST(ConsoleTable, Renders) {
  ConsoleTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_separator();
  t.add_row({"longer-name", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find('+'), std::string::npos);
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--flag", "--key", "value", "--eq=5", "pos"};
  CliArgs args(6, const_cast<char**>(argv));
  EXPECT_TRUE(args.has("flag"));
  EXPECT_EQ(args.get("key", ""), "value");
  EXPECT_EQ(args.get_int("eq", 0), 5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
  EXPECT_EQ(args.get_int("missing", 9), 9);

  // A malformed value is an error naming the flag, never the fallback.
  const char* bad[] = {"prog", "--port", "12x", "--threads=abc"};
  CliArgs garbage(4, const_cast<char**>(bad));
  for (const char* flag : {"port", "threads"}) {
    try {
      garbage.get_int(flag, 7);
      ADD_FAILURE() << "--" << flag << " parsed garbage";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(garbage.get_double("port", 0.0), std::invalid_argument);
  const char* more[] = {"prog", "--omega", "4.5.1", "--empty="};
  CliArgs numbers(4, const_cast<char**>(more));
  EXPECT_THROW(numbers.get_int("omega", 0), std::invalid_argument);
  EXPECT_THROW(numbers.get_double("omega", 0.0), std::invalid_argument);
  // A flag given without a value still reads as absent.
  EXPECT_EQ(numbers.get_int("empty", 3), 3);
  EXPECT_DOUBLE_EQ(numbers.get_double("empty", 1.5), 1.5);
}

TEST(Stopwatch, AccumulatesAndResets) {
  Stopwatch w;
  w.start();
  double x = 0;
  for (int i = 0; i < 100000; ++i) x += std::sqrt(static_cast<double>(i));
  if (x < 0) return;
  w.stop();
  EXPECT_GT(w.seconds(), 0.0);
  const double t1 = w.seconds();
  // Stopped: no more accumulation.
  EXPECT_DOUBLE_EQ(w.seconds(), t1);
  w.reset();
  EXPECT_DOUBLE_EQ(w.seconds(), 0.0);
}

TEST(Numeric, ParseDoubleAcceptsFullStringsOnly) {
  double v = -1.0;
  EXPECT_TRUE(parse_double("4.5", &v));
  EXPECT_DOUBLE_EQ(v, 4.5);
  EXPECT_TRUE(parse_double("+0.25", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(parse_double("-1e-3", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  // Rejections leave *out untouched.
  v = 7.0;
  EXPECT_FALSE(parse_double("", &v));
  EXPECT_FALSE(parse_double("4.5x", &v));
  EXPECT_FALSE(parse_double("x4.5", &v));
  EXPECT_FALSE(parse_double("4.5 ", &v));
  EXPECT_FALSE(parse_double("++1", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(Numeric, ParseIntegers) {
  int i = -1;
  EXPECT_TRUE(parse_int("42", &i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(parse_int("-7", &i));
  EXPECT_EQ(i, -7);
  EXPECT_TRUE(parse_int("+9", &i));
  EXPECT_EQ(i, 9);
  EXPECT_FALSE(parse_int("4.5", &i));
  EXPECT_FALSE(parse_int("", &i));
  EXPECT_FALSE(parse_int("999999999999999999999", &i));  // overflow
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_uint64("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_uint64("-1", &u));
  EXPECT_FALSE(parse_uint64("18446744073709551616", &u));  // overflow
}

TEST(Numeric, FormatDoubleRoundTripsExactly) {
  // Shortest-round-trip formatting: format -> parse must be bit-exact for
  // every representable double, including the awkward ones.
  const double values[] = {
      0.1,
      1.0 / 3.0,
      1e-300,
      -2.5e300,
      12345.6789,
      6.02214076e23,
      -0.0,
      5e-324,  // min subnormal
      std::numeric_limits<double>::max(),
  };
  for (double v : values) {
    double back = 0.0;
    ASSERT_TRUE(parse_double(format_double(v), &back)) << format_double(v);
    EXPECT_EQ(back, v) << format_double(v);
  }
  // Non-finite values are flattened to a valid JSON-safe token.
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "0");
}

/// Switch LC_ALL+LC_NUMERIC to a decimal-comma locale if one is installed;
/// returns false (leaving "C" active) when the host has none.
bool set_comma_locale() {
  const char* const candidates[] = {
      "de_DE.UTF-8",
      "de_DE.utf8",
      "de_DE",
      "fr_FR.UTF-8",
      "fr_FR.utf8",
      "fr_FR",
      "it_IT.UTF-8",
      "es_ES.UTF-8",
  };
  for (const char* name : candidates) {
    if (std::setlocale(LC_ALL, name) != nullptr &&
        std::localeconv()->decimal_point[0] == ',') {
      return true;
    }
  }
  std::setlocale(LC_ALL, "C");
  return false;
}

// Regression for the locale-dependent atof/strtod/stod parsing the CLI,
// fault-spec, and JSON layers used to do: under a decimal-comma locale
// those silently truncated "4.5" to 4.0. Every numeric boundary must be
// locale-independent.
TEST(Numeric, ParsingIsLocaleIndependent) {
  if (!set_comma_locale()) {
    GTEST_SKIP() << "no decimal-comma locale installed";
  }

  double v = 0.0;
  EXPECT_TRUE(parse_double("4.5", &v));
  EXPECT_DOUBLE_EQ(v, 4.5);
  EXPECT_EQ(format_double(2.5), "2.5");

  const char* argv[] = {"prog", "--omega", "4.5"};
  CliArgs args(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.get_double("omega", 0.0), 4.5);

  // Fault-spec probabilities: "p0.5" must keep its fractional part (the
  // described arming mentions the 5 regardless of how the locale would
  // render it).
  util::fault::arm("optimizer.restart=p0.5,seed=3");
  const std::string desc = util::fault::describe();
  EXPECT_NE(desc.find("optimizer.restart=p0"), std::string::npos) << desc;
  EXPECT_NE(desc.find('5'), std::string::npos) << desc;
  util::fault::disarm();

  // JSON numbers: parse and dump both stay dot-separated.
  const auto doc = obs::Json::parse("{\"x\": 1.5, \"y\": -2.25e1}");
  EXPECT_DOUBLE_EQ(doc.find("x")->as_double(), 1.5);
  EXPECT_DOUBLE_EQ(doc.find("y")->as_double(), -22.5);
  const std::string dumped = obs::Json(0.1).dump();
  EXPECT_EQ(dumped.find(','), std::string::npos) << dumped;
  EXPECT_DOUBLE_EQ(obs::Json::parse(dumped).as_double(), 0.1);

  std::setlocale(LC_ALL, "C");
}

// ---------------------------------------------------------------------------
// Structured logging: the wire formats are pinned here — a change to
// either line shape is a breaking change for downstream log consumers.
// ---------------------------------------------------------------------------

namespace {

/// RAII guard restoring global log state mutated by a test.
struct LogStateGuard {
  LogLevel level = log_level();
  LogFormat format = log_format();
  std::string run = run_id();
  ~LogStateGuard() {
    set_log_level(level);
    set_log_format(format);
    set_run_id(run);
    set_log_phase("");
  }
};

}  // namespace

TEST(Log, TextFormatIsPinned) {
  LogStateGuard guard;
  set_log_format(LogFormat::kText);
  const std::string line = format_log_line(LogLevel::kWarn, "hello world");
  // 2026-08-05T12:34:56.789Z [WARN ] [tNN] hello world
  ASSERT_GE(line.size(), 25u) << line;
  const std::string ts = line.substr(0, 24);
  EXPECT_TRUE(std::regex_match(
      ts, std::regex(R"(\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z)")))
      << ts;
  EXPECT_TRUE(std::regex_match(
      line.substr(24),
      std::regex(R"( \[WARN \] \[t\d{2,}\] hello world)")))
      << line;
  // Level names pad to a fixed 5-char column.
  EXPECT_NE(format_log_line(LogLevel::kInfo, "x").find("[INFO ]"),
            std::string::npos);
  EXPECT_NE(format_log_line(LogLevel::kError, "x").find("[ERROR]"),
            std::string::npos);
}

TEST(Log, JsonFormatIsPinned) {
  LogStateGuard guard;
  set_log_format(LogFormat::kJson);
  set_run_id("deadbeefdeadbeef");
  set_log_phase("optimize");
  const std::string line =
      format_log_line(LogLevel::kInfo, "msg with \"quotes\"\nand newline");
  const auto doc = obs::Json::parse(line);  // throws if not valid JSON
  EXPECT_TRUE(std::regex_match(
      doc.find("ts")->as_string(),
      std::regex(R"(\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z)")));
  EXPECT_EQ(doc.find("level")->as_string(), "info");
  EXPECT_GE(doc.find("tid")->as_double(), 0.0);
  EXPECT_EQ(doc.find("run")->as_string(), "deadbeefdeadbeef");
  EXPECT_EQ(doc.find("phase")->as_string(), "optimize");
  EXPECT_EQ(doc.find("msg")->as_string(), "msg with \"quotes\"\nand newline");
  // With no phase set, the key is omitted entirely.
  set_log_phase("");
  const auto bare = obs::Json::parse(format_log_line(LogLevel::kInfo, "m"));
  EXPECT_EQ(bare.find("phase"), nullptr);
}

TEST(Log, RunIdIsStableAndOverridable) {
  LogStateGuard guard;
  const std::string id = run_id();
  EXPECT_EQ(id.size(), 16u);
  for (const char c : id) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << id;
  }
  EXPECT_EQ(run_id(), id);  // stable across calls
  set_run_id("0123456789abcdef");
  EXPECT_EQ(run_id(), "0123456789abcdef");
}

TEST(Log, ConcurrentWritersProduceWholeLines) {
  LogStateGuard guard;
  set_log_format(LogFormat::kJson);
  // Hammer format_log_line from several threads: every result must parse
  // on its own (no interleaving inside the formatter's shared state).
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> workers;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &bad] {
      for (int i = 0; i < kIters; ++i) {
        const std::string line = format_log_line(
            LogLevel::kInfo, "t" + std::to_string(t) + " i" +
                                 std::to_string(i));
        try {
          const auto doc = obs::Json::parse(line);
          if (doc.find("msg") == nullptr) ++bad;
        } catch (...) {
          ++bad;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation.
// ---------------------------------------------------------------------------

TEST(Cancel, FreshTokenIsNotCancelled) {
  util::CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_EQ(token.reason(), util::CancelReason::kNone);
  EXPECT_NO_THROW(token.check());
  EXPECT_EQ(token.remaining_ms(-7), -7);  // fallback when no deadline
}

TEST(Cancel, ExplicitCancelLatchesAndThrows) {
  util::CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), util::CancelReason::kExplicit);
  try {
    token.check();
    FAIL() << "check() must throw once cancelled";
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.reason(), util::CancelReason::kExplicit);
  }
}

TEST(Cancel, ExpiredDeadlineLatchesDeadlineReason) {
  util::CancelToken token;
  token.set_deadline_ms(0);  // already expired
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), util::CancelReason::kDeadline);
  EXPECT_EQ(token.remaining_ms(), 0);
  EXPECT_THROW(token.check(), util::CancelledError);
}

TEST(Cancel, ExplicitCancelIsNotOverwrittenByDeadline) {
  util::CancelToken token;
  token.cancel();
  token.set_deadline_ms(0);
  EXPECT_TRUE(token.cancelled());
  // The first reason wins: a user cancel must not be re-reported as a
  // deadline just because the deadline also expired later.
  EXPECT_EQ(token.reason(), util::CancelReason::kExplicit);
}

TEST(Cancel, FutureDeadlineIsNotYetCancelled) {
  util::CancelToken token;
  token.set_deadline_ms(60000);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.cancelled());
  const auto left = token.remaining_ms();
  EXPECT_GT(left, 0);
  EXPECT_LE(left, 60000);
}

TEST(Cancel, CopiesShareOneState) {
  util::CancelToken token;
  util::CancelToken copy = token;
  copy.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), util::CancelReason::kExplicit);
}

TEST(Cancel, ScopedAmbientTokenNestsAndRestores) {
  EXPECT_EQ(util::current_cancel_token(), nullptr);
  EXPECT_NO_THROW(util::cancel_point());  // no ambient token: no-op
  util::CancelToken outer;
  util::CancelToken inner;
  inner.cancel();
  {
    util::ScopedCancelToken install_outer(&outer);
    EXPECT_EQ(util::current_cancel_token(), &outer);
    EXPECT_NO_THROW(util::cancel_point());
    {
      util::ScopedCancelToken install_inner(&inner);
      EXPECT_EQ(util::current_cancel_token(), &inner);
      EXPECT_THROW(util::cancel_point(), util::CancelledError);
    }
    EXPECT_EQ(util::current_cancel_token(), &outer);
  }
  EXPECT_EQ(util::current_cancel_token(), nullptr);
}

}  // namespace
