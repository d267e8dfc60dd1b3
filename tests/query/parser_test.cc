#include "query/parser.h"

#include <gtest/gtest.h>

namespace prompt {
namespace {

TEST(ParserTest, MinimalWordCount) {
  auto q = ParseQuery("SELECT COUNT WINDOW 30S");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->window, Seconds(30));
  EXPECT_EQ(q->slide, Seconds(1));
  EXPECT_EQ(q->window_batches(), 30u);
  EXPECT_EQ(q->top_k, 0u);
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  auto q = ParseQuery("select sum window 10s slide 2s");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->window_batches(), 5u);
}

TEST(ParserTest, TopKCount) {
  auto q = ParseQuery("SELECT COUNT TOP 10 WINDOW 30S");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->top_k, 10u);
}

TEST(ParserTest, DurationsInAllUnits) {
  auto ms = ParseQuery("SELECT COUNT WINDOW 1500MS SLIDE 500MS");
  ASSERT_TRUE(ms.ok());
  EXPECT_EQ(ms->window, Millis(1500));
  EXPECT_EQ(ms->window_batches(), 3u);

  auto minutes = ParseQuery("SELECT SUM WINDOW 2M SLIDE 30S");
  ASSERT_TRUE(minutes.ok());
  EXPECT_EQ(minutes->window, Seconds(120));
  EXPECT_EQ(minutes->window_batches(), 4u);
}

TEST(ParserTest, ValuePredicate) {
  auto q = ParseQuery("SELECT SUM WHERE VALUE > 2.5 WINDOW 10S");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<KV> out;
  q->job.map->Map(Tuple{0, 1, 3.0}, &out);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  q->job.map->Map(Tuple{0, 1, 2.0}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(ParserTest, ConjunctionOfPredicates) {
  auto q = ParseQuery(
      "SELECT COUNT WHERE VALUE >= 1 AND VALUE <= 5 AND KEY != 9 WINDOW 5S");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<KV> out;
  q->job.map->Map(Tuple{0, 2, 3.0}, &out);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  q->job.map->Map(Tuple{0, 9, 3.0}, &out);  // key filtered
  EXPECT_TRUE(out.empty());
  out.clear();
  q->job.map->Map(Tuple{0, 2, 6.0}, &out);  // value filtered
  EXPECT_TRUE(out.empty());
}

TEST(ParserTest, EqualityOperators) {
  auto eq = ParseQuery("SELECT COUNT WHERE KEY = 4 WINDOW 5S");
  ASSERT_TRUE(eq.ok());
  auto eq2 = ParseQuery("SELECT COUNT WHERE KEY == 4 WINDOW 5S");
  ASSERT_TRUE(eq2.ok());
  std::vector<KV> out;
  eq->job.map->Map(Tuple{0, 4, 1.0}, &out);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  eq->job.map->Map(Tuple{0, 5, 1.0}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(ParserTest, MinAndMaxAggregates) {
  auto qmin = ParseQuery("SELECT MIN WINDOW 10S");
  ASSERT_TRUE(qmin.ok());
  EXPECT_FALSE(qmin->job.reduce->invertible());
  auto qmax = ParseQuery("SELECT MAX WINDOW 10S");
  ASSERT_TRUE(qmax.ok());
  EXPECT_DOUBLE_EQ(qmax->job.reduce->Combine(1, 2), 2.0);
}

TEST(ParserTest, OperatorsAdjacentToOperands) {
  // Tokenizer splits "VALUE>2.5" without spaces around the operator.
  auto q = ParseQuery("SELECT SUM WHERE VALUE>2.5 WINDOW 10S");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
}

struct BadQuery {
  const char* text;
  const char* why;
};

// Prints the case label. Without this gtest prints the struct's raw bytes,
// i.e. two string addresses that change with every run, and CTest's test
// discovery builds the test names from that printout.
void PrintTo(const BadQuery& q, std::ostream* os) { *os << q.why; }

class ParserErrorTest : public ::testing::TestWithParam<BadQuery> {};

TEST_P(ParserErrorTest, RejectsInvalidQueries) {
  auto q = ParseQuery(GetParam().text);
  EXPECT_FALSE(q.ok()) << GetParam().why;
  EXPECT_TRUE(q.status().IsInvalid());
}

INSTANTIATE_TEST_SUITE_P(
    Invalid, ParserErrorTest,
    ::testing::Values(
        BadQuery{"", "empty"},
        BadQuery{"COUNT WINDOW 30S", "missing SELECT"},
        BadQuery{"SELECT AVG WINDOW 30S", "unknown aggregate"},
        BadQuery{"SELECT COUNT", "missing WINDOW"},
        BadQuery{"SELECT COUNT WINDOW", "missing duration"},
        BadQuery{"SELECT COUNT WINDOW 30X", "bad unit"},
        BadQuery{"SELECT COUNT WINDOW 0S", "zero duration"},
        BadQuery{"SELECT COUNT WINDOW 30S EXTRA", "trailing token"},
        BadQuery{"SELECT COUNT TOP 0 WINDOW 30S", "top zero"},
        BadQuery{"SELECT COUNT TOP 2.5 WINDOW 30S", "fractional top"},
        BadQuery{"SELECT COUNT WHERE WINDOW 30S", "empty condition"},
        BadQuery{"SELECT COUNT WHERE VALUE >> 3 WINDOW 30S", "bad operator"},
        BadQuery{"SELECT COUNT WHERE VALUE > x WINDOW 30S", "non-numeric"},
        BadQuery{"SELECT COUNT WINDOW 7S SLIDE 2S", "non-multiple window"}));

TEST(ParserTest, ErrorMessagesCarryPosition) {
  auto q = ParseQuery("SELECT AVG WINDOW 30S");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("position 7"), std::string::npos)
      << q.status().message();
}

TEST(ParserTest, ParsedQueryRunsEndToEnd) {
  // Compile "DEBS Query 1" from text and check the job shape.
  auto q = ParseQuery("SELECT SUM WINDOW 2M SLIDE 5S");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->window_batches(), 24u);
  EXPECT_EQ(q->job.window_batches, 24u);
  EXPECT_TRUE(q->job.reduce->invertible());
}

}  // namespace
}  // namespace prompt
