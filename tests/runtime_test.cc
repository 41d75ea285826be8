// Tests for the runtime layer: ThreadPool, ShardOf/ParallelFor, and
// counter-based RNG streams. The concurrency cases double as
// ThreadSanitizer targets (the CI tsan job runs this binary).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "runtime/flags.h"
#include "runtime/parallel_for.h"
#include "runtime/rng_stream.h"
#include "runtime/thread_pool.h"

namespace bdisk::runtime {
namespace {

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
}

TEST(ThreadPoolTest, DrainsAllTasksOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, HardwareThreadsNeverZero) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

TEST(ShardOfTest, PartitionsExactlyAndEvenly) {
  for (std::uint64_t total : {0ull, 1ull, 7ull, 8ull, 100ull, 12345ull}) {
    for (unsigned shards : {1u, 2u, 3u, 8u, 17u}) {
      std::uint64_t covered = 0;
      std::uint64_t expected_begin = 0;
      std::uint64_t min_size = ~0ull;
      std::uint64_t max_size = 0;
      for (unsigned s = 0; s < shards; ++s) {
        const ShardRange range = ShardOf(total, shards, s);
        EXPECT_EQ(range.begin, expected_begin);  // Contiguous, in order.
        expected_begin = range.end;
        covered += range.size();
        min_size = std::min(min_size, range.size());
        max_size = std::max(max_size, range.size());
      }
      EXPECT_EQ(covered, total);
      EXPECT_EQ(expected_begin, total);
      EXPECT_LE(max_size - min_size, 1u);  // Balanced within one item.
    }
  }
}

TEST(ShardOfTest, DeterministicAcrossCalls) {
  const ShardRange a = ShardOf(12345, 7, 3);
  const ShardRange b = ShardOf(12345, 7, 3);
  EXPECT_EQ(a.begin, b.begin);
  EXPECT_EQ(a.end, b.end);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::uint64_t total = 10000;
  std::vector<int> visits(total, 0);  // Disjoint ranges: no races.
  ParallelFor(&pool, total, 8, [&visits](unsigned, ShardRange range) {
    for (std::uint64_t i = range.begin; i < range.end; ++i) ++visits[i];
  });
  for (std::uint64_t i = 0; i < total; ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInlineInShardOrder) {
  std::vector<unsigned> shard_order;
  ParallelFor(nullptr, 10, 4, [&shard_order](unsigned shard, ShardRange) {
    shard_order.push_back(shard);
  });
  EXPECT_EQ(shard_order, (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(ParallelForTest, PassesMatchingShardRanges) {
  ThreadPool pool(3);
  std::vector<ShardRange> seen(5);
  ParallelFor(&pool, 103, 5, [&seen](unsigned shard, ShardRange range) {
    seen[shard] = range;
  });
  for (unsigned s = 0; s < 5; ++s) {
    const ShardRange expected = ShardOf(103, 5, s);
    EXPECT_EQ(seen[s].begin, expected.begin);
    EXPECT_EQ(seen[s].end, expected.end);
  }
}

TEST(ParallelForTest, SkipsEmptyShards) {
  ThreadPool pool(4);
  std::atomic<int> invocations{0};
  ParallelFor(&pool, 3, 8, [&invocations](unsigned, ShardRange range) {
    EXPECT_GT(range.size(), 0u);
    invocations.fetch_add(1);
  });
  EXPECT_EQ(invocations.load(), 3);
  // Zero work: no invocation at all, and no hang.
  ParallelFor(&pool, 0, 8, [](unsigned, ShardRange) { FAIL(); });
}

TEST(ParallelForTest, SharedAtomicAccumulation) {
  // TSan target: concurrent writes to one atomic from all workers.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  ParallelFor(&pool, 100000, 16, [&sum](unsigned, ShardRange range) {
    std::uint64_t local = 0;
    for (std::uint64_t i = range.begin; i < range.end; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 100000ull * 99999ull / 2);
}

TEST(RngStreamTest, StreamSeedDeterministicAndDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 4096; ++s) {
    EXPECT_EQ(StreamSeed(42, s), StreamSeed(42, s));
    seeds.insert(StreamSeed(42, s));
  }
  EXPECT_EQ(seeds.size(), 4096u);  // Injective in the stream index.
}

TEST(RngStreamTest, DifferentBaseSeedsDecorrelate) {
  int same = 0;
  for (std::uint64_t s = 0; s < 256; ++s) {
    if (StreamRng(1, s)() == StreamRng(2, s)()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngStreamTest, StreamRngReplaysIdentically) {
  Rng a = StreamRng(7, 123);
  Rng b = StreamRng(7, 123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

// A mutable, NULL-terminated argv ("prog" then `args`) for the Consume*
// calls, which compact it in place.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    args_.insert(args_.begin(), "prog");
    for (std::string& arg : args_) ptrs_.push_back(arg.data());
    ptrs_.push_back(nullptr);
    argc = static_cast<int>(args_.size());
  }
  char** argv() { return ptrs_.data(); }

  int argc = 0;

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

Result<std::uint64_t> ByteSizeFlagValue(const std::string& token) {
  Argv a({"--size=" + token});
  return ConsumeByteSizeFlagOnce(&a.argc, a.argv(), "size", 7);
}

TEST(ByteSizeTest, ParsesPlainAndBinarySuffixes) {
  const struct {
    const char* token;
    std::uint64_t expected;
  } kCases[] = {
      {"0", 0},
      {"123", 123},
      {"123B", 123},
      {"4KiB", 4096},
      {"64MiB", 64ull << 20},
      {"2GiB", 2ull << 30},
      {"16383GiB", 16383ull << 30},
  };
  for (const auto& c : kCases) {
    std::uint64_t value = 0;
    EXPECT_TRUE(ParseByteSizeToken(c.token, &value)) << c.token;
    EXPECT_EQ(value, c.expected) << c.token;
    const auto result = ByteSizeFlagValue(c.token);
    ASSERT_TRUE(result.ok()) << c.token;
    EXPECT_EQ(*result, c.expected) << c.token;
  }
}

TEST(ByteSizeTest, RejectsMalformedInputNamingTheToken) {
  const char* kBad[] = {
      "",      "-1",    "1.5GiB", "12 KiB", "KiB",        "64MB",
      "64KB",  "64kib", "64GiB ", "0x10",   "99999999999GiB",  // Overflows.
      "18446744073709551616",                               // > 2^64-1.
  };
  for (const char* token : kBad) {
    std::uint64_t value = 0;
    EXPECT_FALSE(ParseByteSizeToken(token, &value)) << token;
    const auto result = ByteSizeFlagValue(token);
    ASSERT_FALSE(result.ok()) << token;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
    // The error names the offending token (channel-spec error style).
    EXPECT_NE(result.status().message().find("'" + std::string(token) + "'"),
              std::string::npos)
        << result.status();
  }
  std::uint64_t value = 0;
  EXPECT_FALSE(ParseByteSizeToken(nullptr, &value));
}

TEST(ByteSizeTest, ByteSizeFlagParsesOrNamesTheFlag) {
  Argv ok({"--store-bytes", "8MiB"});
  auto v = ConsumeByteSizeFlagOnce(&ok.argc, ok.argv(), "store-bytes", 7);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(*v, 8ull << 20);
  EXPECT_EQ(ok.argc, 1);  // The `--size=V` spelling: ByteSizeFlagValue.
  Argv absent({});
  v = ConsumeByteSizeFlagOnce(&absent.argc, absent.argv(), "store-bytes", 7);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(*v, 7u);
  // A malformed size does not fall back: it is an error naming the flag.
  Argv bad({"--store-bytes", "8MB"});
  v = ConsumeByteSizeFlagOnce(&bad.argc, bad.argv(), "store-bytes", 7);
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsInvalidArgument());
  EXPECT_NE(v.status().message().find("--store-bytes"), std::string::npos);
  EXPECT_NE(v.status().message().find("'8MB'"), std::string::npos);
}

// The same tokens through both strict parsers: a thread count is a plain
// decimal in 1..4096; a double is any complete finite decimal number.
TEST(StrictFlagTest, ThreadsAndDoubleParsersAreStrict) {
  const struct {
    const char* token;
    bool threads_ok;
    unsigned threads;
    bool double_ok;
    double value;
  } kCases[] = {
      {"0", false, 0, true, 0.0},         {"1", true, 1, true, 1.0},
      {"4096", true, 4096, true, 4096.0}, {"4097", false, 0, true, 4097.0},
      {"+4", false, 0, false, 0.0},       {" 4", false, 0, false, 0.0},
      {"1e3", false, 0, true, 1000.0},    {"0.2junk", false, 0, false, 0.0},
  };
  for (const auto& c : kCases) {
    // A rejected token leaves the output untouched (0).
    unsigned threads = 0;
    EXPECT_EQ(ParseThreadsToken(c.token, &threads), c.threads_ok) << c.token;
    EXPECT_EQ(threads, c.threads) << c.token;
    double value = 0.0;
    EXPECT_EQ(ParseDoubleToken(c.token, &value), c.double_ok) << c.token;
    EXPECT_EQ(value, c.value) << c.token;

    Argv t({"--threads", c.token});
    const auto tf = ConsumeThreadsFlagOnce(&t.argc, t.argv(), 3);
    ASSERT_EQ(tf.ok(), c.threads_ok) << c.token;
    if (!tf.ok()) {
      EXPECT_NE(tf.status().message().find("--threads"), std::string::npos);
    }
    Argv d({"--threshold=" + std::string(c.token)});
    const auto df = ConsumeDoubleFlagOnce(&d.argc, d.argv(), "threshold", 0.1);
    ASSERT_EQ(df.ok(), c.double_ok) << c.token;
    if (!df.ok()) {
      EXPECT_NE(df.status().message().find("--threshold"), std::string::npos);
      EXPECT_NE(df.status().message().find(c.token), std::string::npos);
    }
  }
  for (const char* token : {"", "inf", "nan", "0x10", "1e999"}) {
    double value = 0.0;
    EXPECT_FALSE(ParseDoubleToken(token, &value)) << token;
  }
  Argv absent({});
  EXPECT_EQ(*ConsumeThreadsFlagOnce(&absent.argc, absent.argv()), 1u);
  EXPECT_EQ(*ConsumeDoubleFlagOnce(&absent.argc, absent.argv(), "x", 0.5),
            0.5);
}

TEST(StrictFlagTest, AcceptsBothSpellingsAndConsumes) {
  {
    Argv a({"--port", "9000", "file"});
    const auto v = ConsumeUintFlagOnce(&a.argc, a.argv(), "port", 7);
    ASSERT_TRUE(v.ok()) << v.status();
    EXPECT_EQ(*v, 9000u);
    ASSERT_EQ(a.argc, 2);  // Flag and value consumed; positional kept.
    EXPECT_STREQ(a.argv()[1], "file");
    EXPECT_EQ(a.argv()[2], nullptr);  // argv[argc] == NULL preserved.
  }
  {
    Argv a({"--port=9000"});
    const auto v = ConsumeUintFlagOnce(&a.argc, a.argv(), "port", 7);
    ASSERT_TRUE(v.ok()) << v.status();
    EXPECT_EQ(*v, 9000u);
    EXPECT_EQ(a.argc, 1);
  }
  {
    Argv a({});
    const auto v = ConsumeUintFlagOnce(&a.argc, a.argv(), "port", 7);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 7u);  // Absent: fallback.
  }
}

TEST(StrictFlagTest, DuplicateFlagErrorsNamingTheFlag) {
  // Same spelling twice.
  {
    Argv a({"--port", "1", "--port", "2"});
    const auto v = ConsumeUintFlagOnce(&a.argc, a.argv(), "port", 7);
    ASSERT_FALSE(v.ok());
    EXPECT_TRUE(v.status().IsInvalidArgument());
    EXPECT_NE(v.status().message().find("--port"), std::string::npos)
        << v.status();
  }
  // Mixed spellings count as the same flag.
  {
    Argv a({"--port=1", "--port", "2"});
    const auto v = ConsumeStringFlagOnce(&a.argc, a.argv(), "port");
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.status().message().find("--port"), std::string::npos);
  }
  // Bool flags too.
  {
    Argv a({"--follow", "--follow"});
    const auto v = ConsumeBoolFlagOnce(&a.argc, a.argv(), "follow");
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.status().message().find("--follow"), std::string::npos);
  }
  // A different flag sharing the prefix is NOT a duplicate.
  {
    Argv a({"--port", "1", "--portable"});
    const auto v = ConsumeUintFlagOnce(&a.argc, a.argv(), "port", 7);
    ASSERT_TRUE(v.ok()) << v.status();
    EXPECT_EQ(*v, 1u);
  }
}

TEST(StrictFlagTest, MalformedValueErrorsNamingFlagAndToken) {
  Argv a({"--port", "-3"});
  const auto v = ConsumeUintFlagOnce(&a.argc, a.argv(), "port", 7);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("--port"), std::string::npos);
  EXPECT_NE(v.status().message().find("-3"), std::string::npos);

  Argv b({"--bandwidth=8MB"});
  const auto w = ConsumeByteSizeFlagOnce(&b.argc, b.argv(), "bandwidth", 0);
  ASSERT_FALSE(w.ok());
  EXPECT_NE(w.status().message().find("--bandwidth"), std::string::npos);

  // A trailing value flag with no value, and a value on a presence flag.
  Argv trailing({"spec", "--seed"});
  const auto seed = ConsumeUintFlagOnce(&trailing.argc, trailing.argv(),
                                        "seed", 42);
  ASSERT_FALSE(seed.ok());
  EXPECT_NE(seed.status().message().find("--seed"), std::string::npos);
  EXPECT_EQ(trailing.argc, 3);  // argv untouched on error.
  Argv valued({"--follow=yes"});
  const auto follow = ConsumeBoolFlagOnce(&valued.argc, valued.argv(),
                                          "follow");
  ASSERT_FALSE(follow.ok());
  EXPECT_NE(follow.status().message().find("--follow"), std::string::npos);
}

TEST(StrictFlagTest, LeftoverArgumentsAreUsageErrors) {
  Argv exact({"spec"});
  EXPECT_TRUE(ExpectPositionals(exact.argc, exact.argv(), 1).ok());
  Argv stdin_spec({"-"});
  EXPECT_TRUE(ExpectPositionals(stdin_spec.argc, stdin_spec.argv(), 1).ok());

  Argv unknown({"--chanel", "x", "spec"});
  Status s = ExpectPositionals(unknown.argc, unknown.argv(), 1);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("'--chanel'"), std::string::npos) << s;
  Argv surplus({"a", "b"});
  s = ExpectPositionals(surplus.argc, surplus.argv(), 1);
  EXPECT_NE(s.message().find("'b'"), std::string::npos) << s;
  Argv missing({});
  EXPECT_TRUE(ExpectPositionals(missing.argc, missing.argv(), 1)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace bdisk::runtime
