// Pins bench/bench_common.h: the BENCH_*.json writer byte for byte (every
// value kind, every header shape, the last-row comma) and read back through
// tools/benchdiff's parser, and the strict --seed/--jobs parsing.
#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "tools/benchdiff/benchdiff.h"

namespace fsbench {
namespace {

TEST(BenchJsonTest, NumIsPrintfG) {
  BenchJson json("kinds");
  json.AddRow().Num("rate", 0.005).Num("zero", 0.0).Num("whole", 3.0).Num("big", 1234567.0);
  EXPECT_EQ(json.Render(),
            "{\n  \"schema\": 1,\n  \"bench\": \"kinds\",\n  \"results\": [\n"
            "    {\"rate\": 0.005, \"zero\": 0, \"whole\": 3, \"big\": 1.23457e+06}\n"
            "  ]\n}\n");
}

TEST(BenchJsonTest, FixedDigits) {
  BenchJson json("kinds");
  json.AddRow()
      .Fixed("f2", 32.4071, 2)
      .Fixed("f3", 0.0006, 3)
      .Fixed("f4", 1.0, 4)
      .Fixed("f6", 0.1234567, 6)
      .Fixed("neg", -2.5, 3);
  EXPECT_EQ(json.Render(),
            "{\n  \"schema\": 1,\n  \"bench\": \"kinds\",\n  \"results\": [\n"
            "    {\"f2\": 32.41, \"f3\": 0.001, \"f4\": 1.0000, \"f6\": 0.123457, "
            "\"neg\": -2.500}\n"
            "  ]\n}\n");
}

TEST(BenchJsonTest, IntegersOfEveryWidthBoolsAndStrings) {
  BenchJson json("kinds");
  json.AddRow()
      .Int("size", size_t{18446744073709551615U})
      .Int("int", -7)
      .Int("u32", uint32_t{4294967295U})
      .Int("u64", uint64_t{0})
      .Bool("yes", true)
      .Bool("no", false)
      .Str("name", "ext3");
  EXPECT_EQ(json.Render(),
            "{\n  \"schema\": 1,\n  \"bench\": \"kinds\",\n  \"results\": [\n"
            "    {\"size\": 18446744073709551615, \"int\": -7, \"u32\": 4294967295, "
            "\"u64\": 0, \"yes\": true, \"no\": false, \"name\": \"ext3\"}\n"
            "  ]\n}\n");
}

// The three header shapes the tracked benches write: a seed (most), the
// per-cell op count (cache_policy) and nothing extra (vfs_op).
TEST(BenchJsonTest, HeaderVariants) {
  BenchJson seeded("mt_scaling");
  seeded.header().Int("seed", uint64_t{4242});
  EXPECT_EQ(seeded.Render(),
            "{\n  \"schema\": 1,\n  \"bench\": \"mt_scaling\",\n  \"seed\": 4242,\n"
            "  \"results\": [\n  ]\n}\n");

  BenchJson per_cell("cache_policy");
  per_cell.header().Int("ops_per_cell", uint64_t{2000000});
  EXPECT_EQ(per_cell.Render(),
            "{\n  \"schema\": 1,\n  \"bench\": \"cache_policy\",\n"
            "  \"ops_per_cell\": 2000000,\n  \"results\": [\n  ]\n}\n");

  EXPECT_EQ(BenchJson("vfs_op").Render(),
            "{\n  \"schema\": 1,\n  \"bench\": \"vfs_op\",\n  \"results\": [\n  ]\n}\n");
}

TEST(BenchJsonTest, EveryRowButTheLastEndsInAComma) {
  BenchJson json("rows");
  json.header().Int("seed", 1);
  for (int i = 0; i < 3; ++i) {
    json.AddRow().Int("i", i).Str("phase", i < 2 ? "block" : "postmark");
  }
  EXPECT_EQ(json.Render(),
            "{\n  \"schema\": 1,\n  \"bench\": \"rows\",\n  \"seed\": 1,\n"
            "  \"results\": [\n"
            "    {\"i\": 0, \"phase\": \"block\"},\n"
            "    {\"i\": 1, \"phase\": \"block\"},\n"
            "    {\"i\": 2, \"phase\": \"postmark\"}\n"
            "  ]\n}\n");
}

TEST(BenchJsonTest, WrittenFileParsesBackInFileOrder) {
  BenchJson json("round_trip");
  json.header().Int("seed", uint64_t{77});
  json.AddRow().Str("fs", "ext2").Num("rate", 0.005).Fixed("p99_ms", 1.25, 3).Bool("ro", true);
  json.AddRow().Str("fs", "xfs").Num("rate", 0).Fixed("p99_ms", 0, 3).Bool("ro", false);
  const std::string path = ::testing::TempDir() + "BENCH_round_trip.json";
  testing::internal::CaptureStdout();
  ASSERT_TRUE(json.Write(path.c_str()));
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "\nwrote " + path + "\n");

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), json.Render());

  benchdiff::BenchFile file;
  std::string error;
  ASSERT_TRUE(benchdiff::ParseBenchFile(text.str(), &file, &error)) << error;
  EXPECT_EQ(file.schema, 1);
  EXPECT_EQ(file.bench, "round_trip");
  EXPECT_EQ(file.seed, 77u);
  ASSERT_EQ(file.results.size(), 2u);
  const char* const keys[] = {"fs", "rate", "p99_ms", "ro"};
  for (const benchdiff::ResultRow& row : file.results) {
    ASSERT_EQ(row.metrics.size(), 4u);
    for (size_t i = 0; i < row.metrics.size(); ++i) {
      EXPECT_EQ(row.metrics[i].first, keys[i]);
    }
  }
  EXPECT_EQ(file.results[0].metrics[0].second.text, "ext2");
  EXPECT_EQ(file.results[0].metrics[1].second.number, 0.005);
  EXPECT_EQ(file.results[0].metrics[2].second.number, 1.25);
  EXPECT_TRUE(file.results[0].metrics[3].second.boolean);
  EXPECT_EQ(file.results[1].metrics[0].second.text, "xfs");
  EXPECT_EQ(file.results[1].metrics[1].second.number, 0.0);
  EXPECT_FALSE(file.results[1].metrics[3].second.boolean);
}

TEST(BenchJsonTest, UnwritablePathFails) {
  BenchJson json("nowhere");
  testing::internal::CaptureStderr();
  EXPECT_FALSE(json.Write("/nonexistent-dir/BENCH_x.json"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "cannot write /nonexistent-dir/BENCH_x.json\n");
}

BenchArgs Parse(std::initializer_list<const char*> flags) {
  std::vector<char*> argv = {const_cast<char*>("bench")};
  for (const char* flag : flags) {
    argv.push_back(const_cast<char*>(flag));
  }
  return ParseBenchArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(ParseBenchArgsTest, AcceptsWellFormedNumbers) {
  const BenchArgs args = Parse({"--seed=4242", "--jobs=0", "--smoke"});
  EXPECT_EQ(args.seed, 4242u);
  EXPECT_EQ(args.jobs, 0);
  EXPECT_TRUE(args.smoke);
  EXPECT_EQ(Parse({"--seed=18446744073709551615"}).seed, UINT64_MAX);
  EXPECT_EQ(Parse({"--jobs=3"}).jobs, 3);
}

// Each of these once parsed silently (to seed 0 or 12, or to jobs 0 = every
// core), so a typo wrote a BENCH file for a different configuration.
TEST(ParseBenchArgsDeathTest, RejectsMalformedNumbers) {
  for (const char* flag : {"--seed=", "--seed=abc", "--seed=12x", "--seed=-1", "--seed=+1",
                           "--seed= 1", "--seed=18446744073709551616", "--jobs=abc",
                           "--jobs=", "--jobs=-2", "--jobs=2x", "--jobs=2147483648"}) {
    EXPECT_EXIT(Parse({flag}), ::testing::ExitedWithCode(2), "invalid number in '--")
        << flag;
  }
}

TEST(ParseBenchArgsDeathTest, RejectsUnknownArguments) {
  EXPECT_EXIT(Parse({"--paper_scale"}), ::testing::ExitedWithCode(2),
              "unknown argument '--paper_scale'\nusage: ");
}

}  // namespace
}  // namespace fsbench
