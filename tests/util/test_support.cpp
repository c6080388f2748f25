// Unit tests for error contracts, table rendering, timers, and logging.
#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace crowdrank {
namespace {

TEST(Error, ExpectsThrowsWithContext) {
  try {
    CR_EXPECTS(false, "the message");
    FAIL() << "CR_EXPECTS did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

TEST(Error, EnsuresThrows) {
  EXPECT_THROW(CR_ENSURES(1 == 2, "bad invariant"), Error);
}

TEST(Error, PassingChecksAreSilent) {
  EXPECT_NO_THROW(CR_EXPECTS(true, ""));
  EXPECT_NO_THROW(CR_ENSURES(true, ""));
}

TEST(Table, AlignedOutputHasHeaderRuleAndRows) {
  TableWriter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  std::ostringstream oss;
  t.print_aligned(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsWrongRowWidth) {
  TableWriter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
  EXPECT_THROW(TableWriter({}), Error);
}

TEST(Table, CsvEscapesSpecialCells) {
  TableWriter t({"x"});
  t.add_row({"plain"});
  t.add_row({"with,comma"});
  t.add_row({"with\"quote"});
  std::ostringstream oss;
  t.print_csv(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("plain"), std::string::npos);
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(TableWriter::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TableWriter::fmt_percent(0.892, 1), "89.2%");
  EXPECT_EQ(TableWriter::fmt_seconds(0.5, 1), "0.5s");
}

TEST(Timer, StopwatchAdvances) {
  Stopwatch w;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GT(w.elapsed_seconds(), 0.0);
  EXPECT_GT(w.elapsed_millis(), 0.0);
}

TEST(Logging, WarnWritesOneLine) {
  std::ostringstream captured;
  std::streambuf* old_buf = std::cerr.rdbuf(captured.rdbuf());
  log_warn() << "value: " << 42;
  std::cerr.rdbuf(old_buf);
  EXPECT_EQ(captured.str(), "[WARN ] value: 42\n");
}

}  // namespace
}  // namespace crowdrank
