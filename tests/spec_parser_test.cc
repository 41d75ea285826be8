// Tests for the workload spec parser.

#include "bdisk/spec_parser.h"

#include <gtest/gtest.h>

#include <string>

namespace bdisk::broadcast {
namespace {

TEST(SpecParserTest, ByteDomainHappyPath) {
  const std::string text = R"(
# IVHS workload
channel 196608
blocksize 1024
file nav     bytes=16384 latency=0.5 faults=1
file weather bytes=8192  latency=2.0
)";
  auto spec = ParseWorkloadSpec(text);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_TRUE(spec->IsByteDomain());
  EXPECT_EQ(spec->channel_bytes_per_second, 196608u);
  EXPECT_EQ(spec->block_size, 1024u);
  ASSERT_EQ(spec->byte_files.size(), 2u);
  EXPECT_EQ(spec->byte_files[0].name, "nav");
  EXPECT_EQ(spec->byte_files[0].bytes, 16384u);
  EXPECT_DOUBLE_EQ(spec->byte_files[0].latency_seconds, 0.5);
  EXPECT_EQ(spec->byte_files[0].fault_tolerance, 1u);
  EXPECT_EQ(spec->byte_files[1].fault_tolerance, 0u);  // Default.
}

TEST(SpecParserTest, SlotDomainHappyPath) {
  const std::string text =
      "gfile incidents blocks=2 latencies=12,14,16\n"
      "gfile maps blocks=8 latencies=150,170\n";
  auto spec = ParseWorkloadSpec(text);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_FALSE(spec->IsByteDomain());
  ASSERT_EQ(spec->generalized_files.size(), 2u);
  EXPECT_EQ(spec->generalized_files[0].latency_slots,
            (std::vector<std::uint64_t>{12, 14, 16}));
  EXPECT_EQ(spec->generalized_files[1].size_blocks, 8u);
}

TEST(SpecParserTest, CommentsAndBlankLines) {
  const std::string text =
      "\n# header\n   \ngfile a blocks=1 latencies=4  # trailing comment\n";
  auto spec = ParseWorkloadSpec(text);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->generalized_files.size(), 1u);
}

TEST(SpecParserTest, ErrorsNameTheLine) {
  auto spec = ParseWorkloadSpec("channel 100\nbogus 3\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("line 2"), std::string::npos);
}

TEST(SpecParserTest, RejectsMixedDomains) {
  const std::string text =
      "channel 1000\n"
      "file a bytes=100 latency=1.0\n"
      "gfile b blocks=1 latencies=4\n";
  auto spec = ParseWorkloadSpec(text);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("mixes"), std::string::npos);
}

TEST(SpecParserTest, ByteDomainNeedsChannel) {
  auto spec = ParseWorkloadSpec("file a bytes=100 latency=1.0\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("channel"), std::string::npos);
}

TEST(SpecParserTest, RejectsEmptySpec) {
  EXPECT_FALSE(ParseWorkloadSpec("# nothing\n").ok());
}

TEST(SpecParserTest, RejectsMalformedNumbers) {
  EXPECT_FALSE(ParseWorkloadSpec("channel -5\nfile a bytes=1 latency=1\n").ok());
  EXPECT_FALSE(
      ParseWorkloadSpec("channel 10\nfile a bytes=x latency=1\n").ok());
  EXPECT_FALSE(
      ParseWorkloadSpec("gfile a blocks=1 latencies=4,,5\n").ok());
  EXPECT_FALSE(ParseWorkloadSpec("channel 0\ngfile a blocks=1 latencies=4\n")
                   .ok());
}

TEST(SpecParserTest, RejectsMissingAttributes) {
  EXPECT_FALSE(ParseWorkloadSpec("channel 10\nfile a bytes=100\n").ok());
  EXPECT_FALSE(ParseWorkloadSpec("gfile a blocks=2\n").ok());
  EXPECT_FALSE(ParseWorkloadSpec("channel 10\nfile a nonsense\n").ok());
  EXPECT_FALSE(
      ParseWorkloadSpec("gfile a blocks=2 latencies=8 color=red\n").ok());
}

TEST(SpecParserTest, RejectsDuplicateFileNames) {
  auto byte_dup = ParseWorkloadSpec(
      "channel 10\n"
      "file a bytes=100 latency=1.0\n"
      "file a bytes=200 latency=2.0\n");
  ASSERT_FALSE(byte_dup.ok());
  EXPECT_NE(byte_dup.status().message().find("duplicate"),
            std::string::npos);
  EXPECT_NE(byte_dup.status().message().find("line 3"), std::string::npos);

  auto gfile_dup = ParseWorkloadSpec(
      "gfile x blocks=1 latencies=4\n"
      "gfile x blocks=2 latencies=8\n");
  ASSERT_FALSE(gfile_dup.ok());
  EXPECT_NE(gfile_dup.status().message().find("duplicate"),
            std::string::npos);

  // Duplicates across domains are caught before the mixed-domain check
  // (both are errors; the line-specific one is more actionable).
  EXPECT_FALSE(ParseWorkloadSpec("channel 10\n"
                                 "file a bytes=100 latency=1.0\n"
                                 "gfile a blocks=1 latencies=4\n")
                   .ok());
}

TEST(SpecParserTest, RejectsZeroLengthFiles) {
  auto zero_bytes =
      ParseWorkloadSpec("channel 10\nfile a bytes=0 latency=1.0\n");
  ASSERT_FALSE(zero_bytes.ok());
  EXPECT_NE(zero_bytes.status().message().find("zero length"),
            std::string::npos);

  auto zero_blocks = ParseWorkloadSpec("gfile a blocks=0 latencies=4\n");
  ASSERT_FALSE(zero_blocks.ok());
  EXPECT_NE(zero_blocks.status().message().find("zero length"),
            std::string::npos);
}

TEST(SpecParserTest, RejectsNonPositiveLatencies) {
  EXPECT_FALSE(
      ParseWorkloadSpec("channel 10\nfile a bytes=8 latency=0\n").ok());
  EXPECT_FALSE(
      ParseWorkloadSpec("channel 10\nfile a bytes=8 latency=-1.5\n").ok());
  EXPECT_FALSE(ParseWorkloadSpec("gfile a blocks=2 latencies=8,0\n").ok());
  // Not finite, or not plain decimal: a line error, never a window
  // computed from infinity.
  for (const char* latency : {"inf", "-inf", "nan", "infinity", "1e999",
                              "0x1p-1", "+0.5"}) {
    auto spec = ParseWorkloadSpec(std::string("channel 10\n\nfile a bytes=8 "
                                              "latency=") +
                                  latency + "\n");
    ASSERT_FALSE(spec.ok()) << latency;
    EXPECT_TRUE(spec.status().IsInvalidArgument()) << latency;
    EXPECT_NE(spec.status().message().find("line 3"), std::string::npos)
        << spec.status().message();
  }
}

TEST(SpecParserTest, RejectsOverflowSizedFields) {
  // 2^64 and beyond must surface as line errors, not wrap silently.
  EXPECT_FALSE(ParseWorkloadSpec("channel 10\n"
                                 "file a bytes=18446744073709551616 "
                                 "latency=1.0\n")
                   .ok());
  auto overflow = ParseWorkloadSpec(
      "gfile a blocks=99999999999999999999999999 latencies=4\n");
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find("line 1"), std::string::npos);
  EXPECT_FALSE(ParseWorkloadSpec("channel 184467440737095516160\n"
                                 "gfile a blocks=1 latencies=4\n")
                   .ok());
  EXPECT_FALSE(ParseWorkloadSpec("gfile a blocks=1 "
                                 "latencies=4,18446744073709551616\n")
                   .ok());
}

TEST(SpecParserTest, MalformedLinesDoNotCrash) {
  // A grab bag of malformed inputs; each must return a Status, never
  // crash.
  const char* cases[] = {
      "file\n",
      "gfile\n",
      "channel\n",
      "channel 10 20\n",
      "file a bytes= latency=1\n",
      "file a =100 latency=1\n",
      "file a bytes=100=200 latency=1\n",
      "gfile a blocks=1 latencies=\n",
      "gfile a blocks=1 latencies=,\n",
      "gfile a blocks=1 latencies=,4\n",
      "blocksize 0\n",
      "file a bytes=1e3 latency=1\n",
  };
  for (const char* text : cases) {
    EXPECT_FALSE(ParseWorkloadSpec(text).ok()) << text;
  }
}

TEST(SpecParserTest, ParsedSpecBuildsEndToEnd) {
  const std::string text =
      "gfile urgent blocks=2 latencies=16,20\n"
      "gfile bulk blocks=6 latencies=80,90\n";
  auto spec = ParseWorkloadSpec(text);
  ASSERT_TRUE(spec.ok());
  for (const GeneralizedFileSpec& f : spec->generalized_files) {
    EXPECT_TRUE(f.Validate().ok());
  }
}

}  // namespace
}  // namespace bdisk::broadcast
