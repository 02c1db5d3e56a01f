// Tests for the deployment tools' command-line parsing.

#include <gtest/gtest.h>

#include "tools/flags.h"

namespace chariots::tools {
namespace {

Flags Parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Flags(static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
               {"role", "index", "listen", "fsync", "controller", "port",
                "count", "delta", "io_engine", "store-dir"});
}

TEST(FlagsTest, EqualsForm) {
  Flags f = Parse({"--role=maintainer", "--index=3"});
  EXPECT_EQ(f.Get("role"), "maintainer");
  EXPECT_EQ(f.GetInt("index", -1), 3);
}

TEST(FlagsTest, SpaceForm) {
  Flags f = Parse({"--listen", "7001", "--role", "indexer"});
  EXPECT_EQ(f.GetInt("listen", 0), 7001);
  EXPECT_EQ(f.Get("role"), "indexer");
}

TEST(FlagsTest, BareBooleanFlag) {
  Flags f = Parse({"--fsync", "--role=x"});
  EXPECT_TRUE(f.GetBool("fsync"));
  EXPECT_FALSE(f.GetBool("never-set"));
}

TEST(FlagsTest, PositionalArguments) {
  Flags f = Parse({"--controller=1.2.3.4:7000", "append", "hello", "k=v"});
  ASSERT_EQ(f.positional().size(), 3u);
  EXPECT_EQ(f.positional()[0], "append");
  EXPECT_EQ(f.positional()[1], "hello");
  EXPECT_EQ(f.positional()[2], "k=v");
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = Parse({});
  EXPECT_EQ(f.Get("missing", "fallback"), "fallback");
  EXPECT_EQ(f.GetInt("missing", 42), 42);
  EXPECT_FALSE(f.Has("missing"));
}

TEST(FlagsTest, NumericValuesParseWhole) {
  Flags f = Parse({"--port=7000", "--count", "18446744073709551615"});
  EXPECT_EQ(f.GetInt("port", 0), 7000);
  EXPECT_EQ(f.GetUint64("count", 0), 18446744073709551615ull);
  EXPECT_EQ(Parse({"--delta=-5"}).GetInt("delta", 0), -5);
}

TEST(FlagsDeathTest, TrailingGarbageExits) {
  Flags f = Parse({"--port=70o0"});
  EXPECT_EXIT(f.GetInt("port", 0), testing::ExitedWithCode(2), "--port");
  EXPECT_EXIT(f.GetUint64("port", 0), testing::ExitedWithCode(2), "--port");
}

TEST(FlagsDeathTest, EmptyValueExits) {
  Flags f = Parse({"--port="});
  EXPECT_EXIT(f.GetInt("port", 0), testing::ExitedWithCode(2), "--port");
}

TEST(FlagsTest, UnderscoreAndDashSpellOneFlag) {
  // Declared as io_engine, given as io-engine: one flag, either lookup.
  Flags dashed = Parse({"--io-engine=uring"});
  EXPECT_EQ(dashed.Get("io_engine"), "uring");
  EXPECT_EQ(dashed.Get("io-engine"), "uring");
  EXPECT_TRUE(dashed.Has("io_engine"));
  // Declared as store-dir, given as store_dir.
  Flags underscored = Parse({"--store_dir", "/data", "--port=7"});
  EXPECT_EQ(underscored.Get("store-dir"), "/data");
  EXPECT_EQ(underscored.Get("store_dir"), "/data");
  EXPECT_EQ(underscored.GetInt("port", 0), 7);
}

TEST(FlagsDeathTest, UndeclaredFlagExits) {
  // A typo must not run the tool on the flag's default.
  EXPECT_EXIT(Parse({"--io-enigne=uring"}), testing::ExitedWithCode(2),
              "unknown flag --io-enigne");
  EXPECT_EXIT(Parse({"--role=x", "--verbose"}), testing::ExitedWithCode(2),
              "unknown flag --verbose");
}

TEST(FlagsTest, SplitList) {
  auto parts = Flags::Split("a:1,b:2,c:3");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a:1");
  EXPECT_EQ(parts[2], "c:3");
  EXPECT_TRUE(Flags::Split("").empty());
  EXPECT_EQ(Flags::Split("solo").size(), 1u);
  // Empty elements are skipped.
  EXPECT_EQ(Flags::Split("a,,b").size(), 2u);
}

TEST(FlagsTest, SplitHostPort) {
  std::string host;
  int port = 0;
  ASSERT_TRUE(Flags::SplitHostPort("127.0.0.1:7001", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7001);
  EXPECT_FALSE(Flags::SplitHostPort("no-port", &host, &port));
  EXPECT_FALSE(Flags::SplitHostPort("host:", &host, &port));
  EXPECT_FALSE(Flags::SplitHostPort("host:zero", &host, &port));
}

}  // namespace
}  // namespace chariots::tools
