// Tests for the eval::Flags argv parser used by benches and dcmt_cli.

#include <string>

#include <gtest/gtest.h>

#include "eval/flags.h"

namespace dcmt {
namespace {

TEST(FlagsTest, DefaultsWhenNoArgs) {
  char prog[] = "prog";
  char* argv[] = {prog};
  const eval::Flags flags(1, argv, {{"epochs", "4"}, {"lr", "0.01"}});
  EXPECT_EQ(flags.GetInt("epochs"), 4);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr"), 0.01);
}

TEST(FlagsTest, EqualsForm) {
  char prog[] = "prog";
  char arg[] = "--epochs=7";
  char* argv[] = {prog, arg};
  const eval::Flags flags(2, argv, {{"epochs", "4"}});
  EXPECT_EQ(flags.GetInt("epochs"), 7);
}

TEST(FlagsTest, SpaceForm) {
  char prog[] = "prog";
  char name[] = "--lr";
  char value[] = "0.5";
  char* argv[] = {prog, name, value};
  const eval::Flags flags(3, argv, {{"lr", "0.01"}});
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr"), 0.5);
}

TEST(FlagsTest, ListParsing) {
  char prog[] = "prog";
  char arg[] = "--datasets=ae-es,ae-fr,ali-ccp";
  char* argv[] = {prog, arg};
  const eval::Flags flags(2, argv, {{"datasets", ""}});
  const std::vector<std::string> list = flags.GetList("datasets");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "ae-es");
  EXPECT_EQ(list[2], "ali-ccp");
}

TEST(FlagsTest, EmptyListIsEmpty) {
  char prog[] = "prog";
  char* argv[] = {prog};
  const eval::Flags flags(1, argv, {{"datasets", ""}});
  EXPECT_TRUE(flags.GetList("datasets").empty());
}

TEST(FlagsTest, LastValueWins) {
  char prog[] = "prog";
  char a1[] = "--epochs=1";
  char a2[] = "--epochs=9";
  char* argv[] = {prog, a1, a2};
  const eval::Flags flags(3, argv, {{"epochs", "4"}});
  EXPECT_EQ(flags.GetInt("epochs"), 9);
}

TEST(FlagsDeathTest, UnknownFlagExits) {
  char prog[] = "prog";
  char arg[] = "--bogus=1";
  char* argv[] = {prog, arg};
  EXPECT_EXIT((eval::Flags(2, argv, {{"epochs", "4"}})),
              ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(FlagsTest, NegativeAndExponentValuesParse) {
  char prog[] = "prog";
  char a1[] = "--epochs=-3";
  char a2[] = "--lr=2.5e-3";
  char* argv[] = {prog, a1, a2};
  const eval::Flags flags(3, argv, {{"epochs", "4"}, {"lr", "0.01"}});
  EXPECT_EQ(flags.GetInt("epochs"), -3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr"), 2.5e-3);
}

/// Parses `--name=value` against a one-flag spec and reads it back, so a
/// death test sees the exit of the numeric getter, not of the constructor.
void ReadInt(const char* name, const char* value) {
  std::string arg = std::string("--") + name + "=" + value;
  char prog[] = "prog";
  char* argv[] = {prog, arg.data()};
  const eval::Flags flags(2, argv, {{name, "4"}});
  (void)flags.GetInt(name);
}

void ReadDouble(const char* name, const char* value) {
  std::string arg = std::string("--") + name + "=" + value;
  char prog[] = "prog";
  char* argv[] = {prog, arg.data()};
  const eval::Flags flags(2, argv, {{name, "0.5"}});
  (void)flags.GetDouble(name);
}

TEST(FlagsDeathTest, EmptyNumericValueExitsWithFlagName) {
  EXPECT_EXIT(ReadInt("threads", ""), ::testing::ExitedWithCode(2),
              "invalid value for --threads: ''");
  EXPECT_EXIT(ReadDouble("lr", ""), ::testing::ExitedWithCode(2),
              "invalid value for --lr: ''");
}

TEST(FlagsDeathTest, NonNumericValueExitsWithFlagName) {
  EXPECT_EXIT(ReadInt("threads", "abc"), ::testing::ExitedWithCode(2),
              "invalid value for --threads: 'abc'");
  EXPECT_EXIT(ReadDouble("lr", "fast"), ::testing::ExitedWithCode(2),
              "invalid value for --lr: 'fast'");
}

TEST(FlagsDeathTest, TrailingJunkExitsWithFlagName) {
  EXPECT_EXIT(ReadInt("epochs", "12x"), ::testing::ExitedWithCode(2),
              "invalid value for --epochs: '12x'");
  EXPECT_EXIT(ReadInt("epochs", "1.5"), ::testing::ExitedWithCode(2),
              "invalid value for --epochs: '1.5'");
  EXPECT_EXIT(ReadDouble("lr", "0.1 "), ::testing::ExitedWithCode(2),
              "invalid value for --lr: '0.1 '");
}

TEST(FlagsDeathTest, OutOfRangeValueExitsWithFlagName) {
  EXPECT_EXIT(ReadInt("requests", "99999999999"), ::testing::ExitedWithCode(2),
              "invalid value for --requests: '99999999999'");
  EXPECT_EXIT(ReadDouble("lr", "1e999"), ::testing::ExitedWithCode(2),
              "invalid value for --lr: '1e999'");
}

}  // namespace
}  // namespace dcmt
