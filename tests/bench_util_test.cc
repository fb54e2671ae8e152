// The bench argument parser: every bench main reads its positional integer
// arguments through ParseBenchArgs, so bad input must fall back to the
// defaults rather than reach a modeled-core count or a step loop.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace mpic {
namespace {

TEST(BenchArgs, AcceptsWholeIntegersInRange) {
  int v = 0;
  EXPECT_TRUE(ParseBenchInt("4", 1, kMaxBenchCores, &v));
  EXPECT_EQ(v, 4);
  EXPECT_TRUE(ParseBenchInt("64", 1, kMaxBenchCores, &v));
  EXPECT_EQ(v, 64);
  EXPECT_TRUE(ParseBenchInt("100000", 1, kMaxBenchSteps, &v));
  EXPECT_EQ(v, 100000);
}

TEST(BenchArgs, RejectsJunkAndOutOfRange) {
  for (const char* s : {"", "abc", "4x", "-3", "0", "65", "99999999999"}) {
    int v = 7;
    EXPECT_FALSE(ParseBenchInt(s, 1, kMaxBenchCores, &v)) << s;
    EXPECT_EQ(v, 7) << s;
  }
  int v = 7;
  EXPECT_FALSE(ParseBenchInt("100001", 1, kMaxBenchSteps, &v));
  EXPECT_EQ(v, 7);
}

// Builds a mutable argv for ParseBenchArgs from `args`.
std::vector<int> Parse(std::vector<std::string> args,
                       const std::vector<BenchArg>& spec, std::string* err) {
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  testing::internal::CaptureStderr();
  std::vector<int> values =
      ParseBenchArgs(static_cast<int>(argv.size()), argv.data(), spec);
  *err = testing::internal::GetCapturedStderr();
  return values;
}

TEST(BenchArgs, BadArgumentsTakeTheirDefaultsWithOneUsageLine) {
  const std::vector<BenchArg> spec = {{"steps", 5, 1, kMaxBenchSteps},
                                      {"max_cores", 8, 1, kMaxBenchCores}};
  std::string err;
  EXPECT_EQ(Parse({"bench", "4x", "65"}, spec, &err), (std::vector<int>{5, 8}));
  EXPECT_EQ(err, "usage: bench [steps >= 1] [max_cores >= 1]; using defaults\n");
  // A good argument is kept next to a bad one.
  EXPECT_EQ(Parse({"bench", "3", "99999999999"}, spec, &err),
            (std::vector<int>{3, 8}));
  EXPECT_FALSE(err.empty());
  // Absent arguments take their defaults silently; extra ones are ignored.
  EXPECT_EQ(Parse({"bench"}, spec, &err), (std::vector<int>{5, 8}));
  EXPECT_EQ(err, "");
  EXPECT_EQ(Parse({"bench", "2", "4", "junk"}, spec, &err),
            (std::vector<int>{2, 4}));
  EXPECT_EQ(err, "");
  // One argument: the singular usage line.
  EXPECT_EQ(Parse({"bench", "-1"}, {{"steps", 12, 2, kMaxBenchSteps}}, &err),
            (std::vector<int>{12}));
  EXPECT_EQ(err, "usage: bench [steps >= 2]; using default\n");
}

}  // namespace
}  // namespace mpic
