#include "parser/parser.h"

#include "gtest/gtest.h"
#include "paper_fixtures.h"

namespace rbda {
namespace {

TEST(ParserTest, ParsesUniversityExample) {
  Universe universe;
  ParsedDocument doc = MustParse(kUniversityBounded, &universe);
  EXPECT_EQ(doc.schema.relations().size(), 2u);
  EXPECT_EQ(doc.schema.methods().size(), 2u);
  const AccessMethod* ud = doc.schema.FindMethod("ud");
  ASSERT_NE(ud, nullptr);
  EXPECT_TRUE(ud->IsInputFree());
  EXPECT_EQ(ud->bound_kind, BoundKind::kResultBound);
  EXPECT_EQ(ud->bound, 100u);
  EXPECT_EQ(doc.schema.constraints().tgds.size(), 1u);
  EXPECT_EQ(doc.queries.size(), 2u);
  EXPECT_TRUE(doc.schema.Validate().ok());
}

TEST(ParserTest, QueryConstantsAndVariables) {
  Universe universe;
  ParsedDocument doc = MustParse(kUniversityBounded, &universe);
  const ConjunctiveQuery& q1 = doc.queries.at("Q1");
  EXPECT_EQ(q1.free_variables().size(), 1u);
  ASSERT_EQ(q1.atoms().size(), 1u);
  EXPECT_TRUE(q1.atoms()[0].args[0].IsVariable());
  EXPECT_TRUE(q1.atoms()[0].args[2].IsConstant());
  EXPECT_EQ(universe.TermName(q1.atoms()[0].args[2]), "10000");
}

TEST(ParserTest, TgdHeadOnlyVariablesAreExistential) {
  Universe universe;
  ParsedDocument doc = MustParse(kUniversityBounded, &universe);
  const Tgd& tau = doc.schema.constraints().tgds[0];
  EXPECT_TRUE(tau.IsUid());
  EXPECT_EQ(tau.ExistentialVariables().size(), 2u);
}

TEST(ParserTest, ParsesFds) {
  Universe universe;
  ParsedDocument doc = MustParse(kUniversityFd, &universe);
  ASSERT_EQ(doc.schema.constraints().fds.size(), 1u);
  const Fd& fd = doc.schema.constraints().fds[0];
  EXPECT_EQ(fd.determiners, (std::vector<uint32_t>{0}));
  EXPECT_EQ(fd.determined, 1u);
}

TEST(ParserTest, ParsesFacts) {
  Universe universe;
  ParsedDocument doc = MustParse(R"(
relation R(a, b)
fact R("x", "y")
fact R("x", "z")
)",
                                 &universe);
  EXPECT_EQ(doc.data.NumFacts(), 2u);
}

TEST(ParserTest, MultiAtomBodies) {
  Universe universe;
  ParsedDocument doc = MustParse(kExample61, &universe);
  ASSERT_EQ(doc.schema.constraints().tgds.size(), 2u);
  EXPECT_EQ(doc.schema.constraints().tgds[0].body().size(), 2u);
}

TEST(ParserTest, ErrorsAreReported) {
  Universe universe;
  // Unknown relation.
  EXPECT_FALSE(ParseDocument("tgd R(x) -> S(x)", &universe).ok());
  // Arity mismatch.
  EXPECT_FALSE(
      ParseDocument("relation R(a, b)\nfact R(\"x\")", &universe).ok());
  // Facts require constants.
  EXPECT_FALSE(
      ParseDocument("relation R(a)\nfact R(x)", &universe).ok());
  // Unknown statement.
  EXPECT_FALSE(ParseDocument("frobnicate R", &universe).ok());
  // Unterminated string.
  EXPECT_FALSE(
      ParseDocument("relation R(a)\nfact R(\"x)", &universe).ok());
}

TEST(ParserTest, ErrorsMentionLineNumbers) {
  Universe universe;
  StatusOr<ParsedDocument> doc =
      ParseDocument("relation R(a)\n\nbadness here", &universe);
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos);
}

TEST(ParserTest, LowerLimitKeyword) {
  Universe universe;
  ParsedDocument doc = MustParse(R"(
relation R(a, b)
method m on R inputs(0) lowerlimit 7
)",
                                 &universe);
  const AccessMethod* m = doc.schema.FindMethod("m");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->bound_kind, BoundKind::kResultLowerBound);
  EXPECT_EQ(m->bound, 7u);
}

TEST(ParserTest, CommentsAndBlankLines) {
  Universe universe;
  ParsedDocument doc = MustParse(R"(
# a comment
relation R(a)   # trailing comment

)",
                                 &universe);
  EXPECT_EQ(doc.schema.relations().size(), 1u);
}

TEST(ParserTest, ParseQueryStandalone) {
  Universe universe;
  MustParse("relation R(a, b)", &universe);
  StatusOr<ConjunctiveQuery> q = ParseQuery("Q(x) :- R(x, y)", &universe);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->free_variables().size(), 1u);
}

TEST(ParserTest, TrailingTokensAreRejected) {
  // A query body joined with ',' instead of '&' used to parse silently as
  // its first atom. Every statement must end at the end of its line.
  const std::string schema = "relation R(a, b)\nrelation S(a, b)\n";
  for (const char* line : {
           "query Q() :- R(x, y), S(y, z)",
           "tgd R(x, y) -> S(y, x) S(x, x)",
           "fact R(\"a\", \"b\") extra",
           "method m on R inputs(0) limit 3 4",
       }) {
    Universe universe;
    StatusOr<ParsedDocument> doc = ParseDocument(schema + line, &universe);
    ASSERT_FALSE(doc.ok()) << line;
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
        << doc.status().message();
  }
  // The same statements, well formed, still parse.
  Universe universe;
  StatusOr<ParsedDocument> doc = ParseDocument(
      schema +
          "query Q() :- R(x, y) & S(y, z)\ntgd R(x, y) -> S(y, x) & S(x, x)\n"
          "fact R(\"a\", \"b\")\nmethod m on R inputs(0) limit 3",
      &universe);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->queries.at("Q").atoms().size(), 2u);

  EXPECT_FALSE(ParseQuery("Q() :- R(x, y), S(y, z)", &universe).ok());
  EXPECT_TRUE(ParseQuery("Q() :- R(x, y) & S(y, z)", &universe).ok());
}

}  // namespace
}  // namespace rbda
