#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "clo/nn/kernel.hpp"
#include "clo/shell/shell.hpp"
#include "clo/util/obs.hpp"

namespace {

using clo::shell::Shell;

std::string run(Shell& sh, const std::string& cmd) {
  std::ostringstream os;
  sh.execute(cmd, os);
  return os.str();
}

TEST(Shell, GenAndPs) {
  Shell sh;
  const std::string out = run(sh, "gen c432");
  EXPECT_NE(out.find("c432"), std::string::npos);
  EXPECT_NE(out.find("i/o = 36/8"), std::string::npos);
  EXPECT_FALSE(sh.last_failed());
  EXPECT_TRUE(sh.design().has_value());
  EXPECT_NE(run(sh, "ps").find("and = "), std::string::npos);
}

TEST(Shell, ErrorsAreReportedNotThrown) {
  Shell sh;
  EXPECT_NE(run(sh, "ps").find("error:"), std::string::npos);
  EXPECT_TRUE(sh.last_failed());
  EXPECT_NE(run(sh, "gen bogus_circuit").find("error:"), std::string::npos);
  EXPECT_TRUE(sh.last_failed());
  EXPECT_NE(run(sh, "frobnicate").find("unknown command"), std::string::npos);
  EXPECT_TRUE(sh.last_failed());
}

TEST(Shell, TransformCommandsPreserveEquivalence) {
  Shell sh;
  run(sh, "gen cavlc");
  run(sh, "save");
  for (const char* cmd : {"rw", "rf", "rs", "b", "rwz", "rfz", "rsz"}) {
    run(sh, cmd);
    EXPECT_FALSE(sh.last_failed()) << cmd;
  }
  const std::string out = run(sh, "cec");
  EXPECT_NE(out.find("equivalent"), std::string::npos);
  EXPECT_FALSE(sh.last_failed());
}

TEST(Shell, CecIsAProofAndReportsCounterexamples) {
  Shell sh;
  run(sh, "gen c17");
  run(sh, "save");
  run(sh, "seq rw;b;rf");
  EXPECT_NE(run(sh, "cec").find("proved by"), std::string::npos);
  EXPECT_FALSE(sh.last_failed());
  // A different circuit must be rejected (here: interface mismatch).
  run(sh, "gen c17");
  run(sh, "save");
  run(sh, "gen ctrl");
  const std::string out = run(sh, "cec");
  EXPECT_NE(out.find("NOT EQUIVALENT"), std::string::npos);
  EXPECT_TRUE(sh.last_failed());
}

TEST(Shell, VerifyCommandTogglesTheFlag) {
  Shell sh;
  EXPECT_FALSE(sh.verify());
  EXPECT_NE(run(sh, "verify").find("verify = off"), std::string::npos);
  EXPECT_NE(run(sh, "verify on").find("verify = on"), std::string::npos);
  EXPECT_TRUE(sh.verify());
  EXPECT_NE(run(sh, "verify off").find("verify = off"), std::string::npos);
  EXPECT_FALSE(sh.verify());
  run(sh, "verify maybe");
  EXPECT_TRUE(sh.last_failed());
  sh.set_verify(true);
  EXPECT_NE(run(sh, "verify").find("verify = on"), std::string::npos);
}

TEST(Shell, TuneWithVerifyReportsTheVerdict) {
  Shell sh;
  const std::string report_path = testing::TempDir() + "/verify_report.json";
  sh.set_report_path(report_path);
  sh.set_verify(true);
  run(sh, "gen c17");
  const std::string out = run(sh, "tune 8 1");
  EXPECT_FALSE(sh.last_failed()) << out;
  EXPECT_NE(out.find("verify   : equivalent"), std::string::npos) << out;
  std::ifstream f(report_path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string report = ss.str();
  EXPECT_NE(report.find("\"verify\": \"equivalent\""), std::string::npos);
  EXPECT_NE(report.find("\"verification\""), std::string::npos);
}

TEST(Shell, TuneRejectsCountsItCannotRunBeforeTraining) {
  Shell sh;
  const std::string report_path = testing::TempDir() + "/rejected_report.json";
  sh.set_report_path(report_path);
  run(sh, "gen c17");
  for (const char* cmd : {"tune 8 -1", "tune 8 0", "tune 0 2"}) {
    std::remove(report_path.c_str());
    const std::string out = run(sh, cmd);
    EXPECT_TRUE(sh.last_failed()) << cmd;
    EXPECT_NE(out.find("must be >= 1"), std::string::npos) << out;
    // A rejected config still leaves a parseable "failed" report behind.
    std::ifstream f(report_path);
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_NE(ss.str().find("\"status\": \"failed\""), std::string::npos)
        << cmd;
  }
}

// Numeric arguments are whole base-10 ints; "4x" or "abc" is a usage
// error, never a silently truncated number.
TEST(Shell, TuneRejectsNonIntegerCounts) {
  Shell sh;
  run(sh, "gen c17");
  for (const char* cmd : {"tune 4x 1x", "tune 4 1x", "tune abc", "tune 2.5"}) {
    const std::string out = run(sh, cmd);
    EXPECT_TRUE(sh.last_failed()) << cmd;
    EXPECT_NE(out.find("usage: tune [dataset] [restarts]"), std::string::npos)
        << out;
    EXPECT_EQ(out.find("original :"), std::string::npos) << out;
  }
}

TEST(Shell, ThreadsRejectsNonInteger) {
  Shell sh;
  EXPECT_NE(run(sh, "threads 3").find("threads = 3"), std::string::npos);
  for (const char* cmd : {"threads 3abc", "threads abc", "threads 2x"}) {
    const std::string out = run(sh, cmd);
    EXPECT_TRUE(sh.last_failed()) << cmd;
    EXPECT_NE(out.find("usage: threads [n]"), std::string::npos) << out;
    EXPECT_EQ(sh.threads(), 3) << cmd;
  }
}

TEST(Shell, ServeStartRejectsNonIntegerPort) {
  Shell sh;
  for (const char* cmd : {"serve start 80x", "serve start port"}) {
    const std::string out = run(sh, cmd);
    EXPECT_TRUE(sh.last_failed()) << cmd;
    EXPECT_NE(out.find("usage: serve start"), std::string::npos) << out;
    EXPECT_NE(run(sh, "serve status").find("not running"), std::string::npos);
  }
}

// `simd` switches between the scalar reference and the best path the host
// supports; there is no way to name a target.
TEST(Shell, SimdCommandSwitchesBetweenScalarAndTheBestPath) {
  Shell sh;
  const std::string best =
      clo::nn::kernel::simd_supported() ? "avx2" : "scalar";
  EXPECT_NE(run(sh, "simd off").find("(target scalar)"), std::string::npos);
  EXPECT_FALSE(sh.simd());
  EXPECT_NE(run(sh, "simd on").find("(target " + best + ")"),
            std::string::npos);
  EXPECT_EQ(sh.simd(), clo::nn::kernel::simd_supported());
  for (const char* cmd : {"simd avx512", "simd avx2", "simd auto"}) {
    const std::string out = run(sh, cmd);
    EXPECT_TRUE(sh.last_failed()) << cmd;
    EXPECT_NE(out.find("usage: simd [on|off]"), std::string::npos) << out;
  }
  EXPECT_STREQ(clo::nn::kernel::active_target(), best.c_str());
}

TEST(Shell, SeqCommand) {
  Shell sh;
  run(sh, "gen sqrt");
  const auto before = sh.design()->num_ands();
  run(sh, "seq b;rw;rf;b;rwz");
  EXPECT_FALSE(sh.last_failed());
  EXPECT_LT(sh.design()->num_ands(), before);
}

TEST(Shell, MapCommand) {
  Shell sh;
  run(sh, "gen c17");
  const std::string out = run(sh, "map");
  EXPECT_NE(out.find("area = "), std::string::npos);
  EXPECT_NE(out.find("delay = "), std::string::npos);
  const std::string area_out = run(sh, "map -a");
  EXPECT_FALSE(sh.last_failed());
}

TEST(Shell, SimCommand) {
  Shell sh;
  run(sh, "gen c17");
  const std::string out = run(sh, "sim 11111");
  EXPECT_NE(out.find("po: "), std::string::npos);
  // Wrong width is an error.
  run(sh, "sim 111");
  EXPECT_TRUE(sh.last_failed());
}

TEST(Shell, WriteReadRoundTrip) {
  Shell sh;
  run(sh, "gen int2float");
  const std::string path = testing::TempDir() + "/shell_rt.aag";
  run(sh, "write " + path);
  EXPECT_FALSE(sh.last_failed());
  run(sh, "save");
  run(sh, "read " + path);
  EXPECT_FALSE(sh.last_failed());
  EXPECT_NE(run(sh, "cec").find("equivalent"), std::string::npos);
}

TEST(Shell, WriteVerilog) {
  Shell sh;
  run(sh, "gen c17");
  const std::string path = testing::TempDir() + "/shell_c17.v";
  run(sh, "write " + path);
  EXPECT_FALSE(sh.last_failed());
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string v = ss.str();
  EXPECT_NE(v.find("module c17("), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("assign"), std::string::npos);
}

TEST(Shell, ScriptExecution) {
  Shell sh;
  std::istringstream script(
      "# a comment\n"
      "gen ctrl\n"
      "save\n"
      "rw\n"
      "cec\n"
      "echo done\n");
  std::ostringstream out;
  const int failures = sh.run_script(script, out);
  EXPECT_EQ(failures, 0);
  EXPECT_NE(out.str().find("done"), std::string::npos);
}

TEST(Shell, QuitStopsExecution) {
  Shell sh;
  std::ostringstream os;
  EXPECT_FALSE(sh.execute("quit", os));
}

TEST(Shell, ListShowsCatalog) {
  Shell sh;
  const std::string out = run(sh, "list");
  EXPECT_NE(out.find("adder"), std::string::npos);
  EXPECT_NE(out.find("c7552"), std::string::npos);
}

TEST(Shell, HelpListsCommands) {
  Shell sh;
  const std::string out = run(sh, "help");
  for (const char* cmd :
       {"gen", "read", "write", "map", "cec", "tune", "metrics", "profile"}) {
    EXPECT_NE(out.find(cmd), std::string::npos) << cmd;
  }
}

TEST(Shell, MetricsCommandIsDeterministicAndNameSorted) {
  clo::obs::Registry::instance().reset();
  clo::obs::set_enabled(true);
  clo::obs::Registry::instance().add_counter("zeta.counter", 2);
  clo::obs::Registry::instance().add_counter("alpha.counter", 1);
  Shell sh;
  const std::string out = run(sh, "metrics");
  EXPECT_NE(out.find("-- counters --"), std::string::npos) << out;
  const auto alpha = out.find("alpha.counter = 1");
  const auto zeta = out.find("zeta.counter = 2");
  ASSERT_NE(alpha, std::string::npos) << out;
  ASSERT_NE(zeta, std::string::npos) << out;
  EXPECT_LT(alpha, zeta) << "metrics output must be name-sorted";
  EXPECT_EQ(out, run(sh, "metrics")) << "metrics output must be stable";
  EXPECT_NE(run(sh, "metrics reset").find("metrics reset"),
            std::string::npos);
  EXPECT_EQ(run(sh, "metrics").find("alpha.counter"), std::string::npos);
  clo::obs::set_enabled(false);
  clo::obs::Registry::instance().reset();
}

TEST(Shell, MetricsAndProfileReportDisabledObservability) {
  clo::obs::set_enabled(false);
  Shell sh;
  EXPECT_NE(run(sh, "metrics").find("observability is disabled"),
            std::string::npos);
  EXPECT_NE(run(sh, "profile").find("observability is disabled"),
            std::string::npos);
  EXPECT_FALSE(sh.last_failed());
}

TEST(Shell, ProfileCommandPrintsSpanTable) {
  clo::obs::Registry::instance().reset();
  clo::obs::reset_trace();
  clo::obs::set_enabled(true);
  {
    clo::obs::ScopedSpan span("shelltest.span");
  }
  Shell sh;
  const std::string out = run(sh, "profile");
  EXPECT_NE(out.find("-- profile (total self count p50 p99) --"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("shelltest.span"), std::string::npos) << out;
  EXPECT_NE(out.find("n=1"), std::string::npos) << out;
  clo::obs::set_enabled(false);
  clo::obs::reset_trace();
  clo::obs::Registry::instance().reset();
}

}  // namespace
