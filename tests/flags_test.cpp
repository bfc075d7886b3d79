// Tests for the hardened CLI layer: typed flag validation at parse time,
// and — through real subprocess runs of agora_sim / agora_serve — the tool
// contract that unknown flags, malformed values, and stray arguments print
// usage and exit non-zero while --help exits zero.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

#include "util/flags.h"

namespace agora {
namespace {

// ------------------------------------------------------------ parse layer ---

Flags typed_flags() {
  Flags f;
  f.define("name", "anon", "a string");
  f.define_int("count", "3", "an integer");
  f.define_double("rate", "1.5", "a number");
  f.define_bool("fast", "0", "a boolean");
  return f;
}

std::vector<std::string> parse(Flags& f, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return f.parse(static_cast<int>(args.size()), args.data());
}

TEST(Flags, TypedValuesParseAndReadBack) {
  Flags f = typed_flags();
  parse(f, {"--count=42", "--rate", "2.25", "--fast=true", "--name=zed"});
  EXPECT_EQ(f.get_int("count"), 42);
  EXPECT_DOUBLE_EQ(f.get_double("rate"), 2.25);
  EXPECT_TRUE(f.get_bool("fast"));
  EXPECT_EQ(f.get("name"), "zed");
}

TEST(Flags, MalformedTypedValuesFailAtParseTime) {
  {
    Flags f = typed_flags();
    EXPECT_THROW(parse(f, {"--count=abc"}), PreconditionError);
  }
  {
    Flags f = typed_flags();
    EXPECT_THROW(parse(f, {"--count=12x"}), PreconditionError);  // trailing junk
  }
  {
    Flags f = typed_flags();
    EXPECT_THROW(parse(f, {"--rate=1.2.3"}), PreconditionError);
  }
  {
    Flags f = typed_flags();
    EXPECT_THROW(parse(f, {"--fast=maybe"}), PreconditionError);
  }
  {
    Flags f = typed_flags();
    EXPECT_THROW(parse(f, {"--count=99999999999999999999"}), PreconditionError);  // overflow
  }
}

TEST(Flags, UnknownFlagAndMissingValueStillThrow) {
  {
    Flags f = typed_flags();
    EXPECT_THROW(parse(f, {"--nope=1"}), PreconditionError);
  }
  {
    Flags f = typed_flags();
    EXPECT_THROW(parse(f, {"--count"}), PreconditionError);  // value expected
  }
}

TEST(Flags, BadDefaultIsAProgrammerError) {
  Flags f;
  EXPECT_THROW(f.define_int("broken", "not-a-number", "doc"), PreconditionError);
}

TEST(Flags, UntypedFlagsAcceptAnythingAtParse) {
  Flags f = typed_flags();
  parse(f, {"--name=--weird=value with spaces"});
  EXPECT_EQ(f.get("name"), "--weird=value with spaces");
}

// --------------------------------------------------------- tool subprocess ---

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr interleaved
};

RunResult run_tool(const std::string& cmd) {
  RunResult r;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) r.output += buf.data();
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

class ToolCli : public ::testing::TestWithParam<const char*> {};

TEST_P(ToolCli, UnknownFlagPrintsUsageAndExits2) {
  const RunResult r = run_tool(std::string(GetParam()) + " --definitely-not-a-flag=1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown flag"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("flags:"), std::string::npos) << "usage text missing: " << r.output;
}

TEST_P(ToolCli, InvalidValuePrintsUsageAndExits2) {
  const RunResult r = run_tool(std::string(GetParam()) + " --seed=banana");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("not an integer"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("flags:"), std::string::npos) << r.output;
}

TEST_P(ToolCli, StrayPositionalArgumentExits2) {
  const RunResult r = run_tool(std::string(GetParam()) + " stray-argument");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unexpected argument"), std::string::npos) << r.output;
}

TEST_P(ToolCli, HelpExitsZero) {
  const RunResult r = run_tool(std::string(GetParam()) + " --help");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("flags:"), std::string::npos) << r.output;
}

INSTANTIATE_TEST_SUITE_P(Tools, ToolCli,
                         ::testing::Values(AGORA_SIM_BIN, AGORA_SERVE_BIN));

TEST(ToolCli, ServeRejectsOutOfRangeValues) {
  const RunResult r = run_tool(std::string(AGORA_SERVE_BIN) + " --max-queue=0");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  const RunResult r2 =
      run_tool(std::string(AGORA_SERVE_BIN) + " --connect=localhost:not-a-port");
  EXPECT_EQ(r2.exit_code, 2) << r2.output;
  // A negative count is refused as itself, before an unsigned cast could
  // wrap it past the check.
  const RunResult r3 = run_tool(std::string(AGORA_SERVE_BIN) + " --participants=-1");
  EXPECT_EQ(r3.exit_code, 2) << r3.output;
  EXPECT_NE(r3.output.find("--participants must be >= 1"), std::string::npos) << r3.output;
}

TEST(ToolCli, SimRejectsBadEnumAndRangeValues) {
  const RunResult r = run_tool(std::string(AGORA_SIM_BIN) + " --scheduler=bogus");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown --scheduler"), std::string::npos) << r.output;
  const RunResult r2 = run_tool(std::string(AGORA_SIM_BIN) +
                                " --grm-replicas=1 --rms-drop=1.5 --rms-requests=1");
  EXPECT_EQ(r2.exit_code, 2) << r2.output;
}

TEST(ToolCli, SimAcceptsAFractionalZipfExponent) {
  // The README's own example: --zipf is a real exponent, not an integer.
  const RunResult r = run_tool(std::string(AGORA_SIM_BIN) +
                               " --proxies=2 --peak-rate=0.5 --zipf=1.1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

}  // namespace
}  // namespace agora
