#include "netcore/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "netcore/error.hpp"

namespace dynaddr::csv {
namespace {

TEST(SplitLine, PlainFields) {
    EXPECT_EQ(split_line("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split_line(""), (std::vector<std::string>{""}));
    EXPECT_EQ(split_line("a,,c"), (std::vector<std::string>{"a", "", "c"}));
    EXPECT_EQ(split_line(","), (std::vector<std::string>{"", ""}));
}

TEST(SplitLine, QuotedFields) {
    EXPECT_EQ(split_line(R"("a,b",c)"), (std::vector<std::string>{"a,b", "c"}));
    EXPECT_EQ(split_line(R"("say ""hi""")"),
              (std::vector<std::string>{"say \"hi\""}));
    EXPECT_THROW(split_line(R"("unterminated)"), ParseError);
}

TEST(JoinLine, QuotesOnlyWhenNeeded) {
    EXPECT_EQ(join_line({"a", "b"}), "a,b");
    EXPECT_EQ(join_line({"a,b", "c"}), R"("a,b",c)");
    EXPECT_EQ(join_line({"say \"hi\""}), R"("say ""hi""")");
}

TEST(JoinSplit, RoundTripsArbitraryFields) {
    const std::vector<std::string> fields = {"plain", "with,comma",
                                             "with\"quote", "", "a,b\",c\"\""};
    EXPECT_EQ(split_line(join_line(fields)), fields);
}

TEST(WriterReader, RoundTrip) {
    std::stringstream buffer;
    {
        Writer writer(buffer, {"id", "name"});
        writer.write_row({"1", "alpha"});
        writer.write_row({"2", "beta,comma"});
        EXPECT_EQ(writer.rows_written(), 2u);
    }
    ScanReader reader(buffer);
    EXPECT_EQ(reader.header(), (std::vector<std::string>{"id", "name"}));
    EXPECT_EQ(reader.column("name"), 1u);
    EXPECT_THROW((void)reader.column("nope"), Error);
    const auto* row1 = reader.next_row();
    ASSERT_NE(row1, nullptr);
    EXPECT_EQ((*row1)[1], "alpha");
    const auto* row2 = reader.next_row();
    ASSERT_NE(row2, nullptr);
    EXPECT_EQ((*row2)[1], "beta,comma");
    EXPECT_EQ(reader.next_row(), nullptr);
}

TEST(Writer, EnforcesWidth) {
    std::stringstream buffer;
    Writer writer(buffer, {"a", "b"});
    EXPECT_THROW(writer.write_row({"only-one"}), Error);
    EXPECT_THROW(Writer(buffer, {}), Error);
}

TEST(ScanReader, MatchesReaderSemantics) {
    // Plain rows, blank lines, CRLF, missing trailing newline.
    std::stringstream buffer("probe,addr\r\n\r\n101,10.0.0.1\r\n\n102,10.0.0.2");
    ScanReader reader(buffer);
    EXPECT_EQ(reader.column("probe"), 0u);
    EXPECT_EQ(reader.column("addr"), 1u);
    EXPECT_THROW((void)reader.column("nope"), Error);
    const auto* row1 = reader.next_row();
    ASSERT_NE(row1, nullptr);
    EXPECT_EQ((*row1)[0], "101");
    EXPECT_EQ((*row1)[1], "10.0.0.1");
    const auto* row2 = reader.next_row();
    ASSERT_NE(row2, nullptr);
    EXPECT_EQ((*row2)[1], "10.0.0.2");
    EXPECT_EQ(reader.next_row(), nullptr);
}

TEST(ScanReader, QuotedRowsFallBackToFullParser) {
    std::stringstream buffer(
        "a,b\n\"beta,comma\",plain\n\"esc\"\"quote\",2\n");
    ScanReader reader(buffer);
    const auto* row1 = reader.next_row();
    ASSERT_NE(row1, nullptr);
    EXPECT_EQ((*row1)[0], "beta,comma");
    EXPECT_EQ((*row1)[1], "plain");
    const auto* row2 = reader.next_row();
    ASSERT_NE(row2, nullptr);
    EXPECT_EQ((*row2)[0], "esc\"quote");
    EXPECT_EQ(reader.next_row(), nullptr);
}

TEST(ScanReader, RejectsEmptyStreamAndBadRows) {
    std::stringstream empty;
    EXPECT_THROW(ScanReader{empty}, ParseError);

    std::stringstream bad("a,b\n1,2,3\n");
    ScanReader reader(bad);
    EXPECT_THROW(reader.next_row(), ParseError);
}

TEST(ScanReader, EmptyFieldsSurvive) {
    std::stringstream buffer("a,b,c\n,,\nx,,z\n");
    ScanReader reader(buffer);
    const auto* row1 = reader.next_row();
    ASSERT_NE(row1, nullptr);
    EXPECT_EQ((*row1)[0], "");
    EXPECT_EQ((*row1)[2], "");
    const auto* row2 = reader.next_row();
    ASSERT_NE(row2, nullptr);
    EXPECT_EQ((*row2)[1], "");
    EXPECT_EQ((*row2)[2], "z");
}

}  // namespace
}  // namespace dynaddr::csv
