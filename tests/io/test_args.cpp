// Unit tests for the CLI argument parser.
#include "io/args.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace crowdrank::io {
namespace {

Args make(std::initializer_list<const char*> tokens,
          const std::set<std::string>& options,
          const std::set<std::string>& flags = {}) {
  std::vector<const char*> argv{"prog", "cmd"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args(static_cast<int>(argv.size()), argv.data(), 2, options, flags);
}

TEST(Args, ParsesOptionsAndPositionals) {
  const Args args = make({"--objects", "50", "extra"}, {"objects"});
  EXPECT_TRUE(args.has("objects"));
  EXPECT_EQ(args.get_size("objects", 0), 50u);
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "extra");
}

TEST(Args, FlagsNeedNoValue) {
  const Args args = make({"--verbose", "--objects", "3"}, {"objects"},
                         {"verbose"});
  EXPECT_TRUE(args.flag("verbose"));
  EXPECT_FALSE(args.flag("quiet"));
}

TEST(Args, UnknownOptionThrows) {
  EXPECT_THROW(make({"--bogus", "1"}, {"objects"}), Error);
}

TEST(Args, MissingValueThrows) {
  EXPECT_THROW(make({"--objects"}, {"objects"}), Error);
}

TEST(Args, TypedAccessorsWithDefaults) {
  const Args args = make({"--ratio", "0.25", "--seed", "7"},
                         {"ratio", "seed", "name"});
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 0.25);
  EXPECT_EQ(args.get_seed("seed", 0), 7u);
  EXPECT_EQ(args.get_string("name", "default"), "default");
  EXPECT_DOUBLE_EQ(args.get_double("missing-is-fallback", 1.5), 1.5);
}

TEST(Args, InvalidNumbersThrow) {
  const Args a = make({"--objects", "abc"}, {"objects"});
  EXPECT_THROW(a.get_size("objects", 0), Error);
  const Args b = make({"--ratio", "0.5x"}, {"ratio"});
  EXPECT_THROW(b.get_double("ratio", 0.0), Error);
}

TEST(Args, RequiredAccessors) {
  const Args args = make({"--objects", "9"}, {"objects", "votes"});
  EXPECT_EQ(args.require_size("objects"), 9u);
  EXPECT_THROW(args.require_size("votes"), Error);
  EXPECT_THROW(args.require_string("votes"), Error);
}

}  // namespace
}  // namespace crowdrank::io
