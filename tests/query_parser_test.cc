/// Tests for the HDBL-style query parser: the Fig. 3 queries verbatim,
/// the supported fragment's boundaries, and end-to-end execution of
/// parsed queries.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "query/parser.h"
#include "sim/engine.h"
#include "sim/fixtures.h"
#include "util/rng.h"

namespace codlock::query {
namespace {

using namespace std::string_literals;

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : f_(sim::BuildFigure7Instance()) {}

  Result<Query> Parse(const std::string& text) {
    return ParseQuery(*f_.catalog, text);
  }

  sim::CellsFixture f_;
};

TEST_F(ParserTest, Q1Verbatim) {
  Result<Query> q = Parse(
      "SELECT o FROM c IN cells, o IN c.c_objects "
      "WHERE c.cell_id = 'c1' FOR READ");
  ASSERT_TRUE(q.ok()) << q.status();
  Query expected = MakeQ1(f_.cells);
  EXPECT_EQ(q->relation, expected.relation);
  EXPECT_EQ(q->object_key, expected.object_key);
  EXPECT_EQ(nf2::PathToString(q->path), nf2::PathToString(expected.path));
  EXPECT_EQ(q->kind, expected.kind);
}

TEST_F(ParserTest, Q2Verbatim) {
  Result<Query> q = Parse(
      "SELECT r FROM c IN cells, r IN c.robots "
      "WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE");
  ASSERT_TRUE(q.ok()) << q.status();
  Query expected = MakeQ2(f_.cells);
  EXPECT_EQ(q->relation, expected.relation);
  EXPECT_EQ(q->object_key, expected.object_key);
  EXPECT_EQ(nf2::PathToString(q->path), nf2::PathToString(expected.path));
  EXPECT_EQ(q->kind, expected.kind);
}

TEST_F(ParserTest, Q3Verbatim) {
  Result<Query> q = Parse(
      "SELECT r FROM c IN cells, r IN c.robots "
      "WHERE c.cell_id = 'c1' AND r.robot_id = 'r2' FOR UPDATE");
  ASSERT_TRUE(q.ok()) << q.status();
  Query expected = MakeQ3(f_.cells);
  EXPECT_EQ(q->object_key, expected.object_key);
  EXPECT_EQ(nf2::PathToString(q->path), nf2::PathToString(expected.path));
}

TEST_F(ParserTest, WholeObjectSelect) {
  Result<Query> q =
      Parse("SELECT c FROM c IN cells WHERE c.cell_id = 'c1' FOR READ");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->path.empty());
  EXPECT_EQ(q->object_key, "c1");
}

TEST_F(ParserTest, WholeRelationScan) {
  Result<Query> q = Parse("SELECT c FROM c IN cells FOR READ");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->object_key.empty());
  EXPECT_TRUE(q->path.empty());
}

TEST_F(ParserTest, ThreeLevelNavigation) {
  Result<Query> q = Parse(
      "SELECT e FROM c IN cells, r IN c.robots, e IN r.effectors "
      "WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR READ");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(nf2::PathToString(q->path), "robots['r1'].effectors");
}

TEST_F(ParserTest, DeleteKind) {
  Result<Query> q = Parse(
      "SELECT r FROM c IN cells, r IN c.robots "
      "WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR DELETE");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->kind, AccessKind::kDelete);
}

TEST_F(ParserTest, KeywordsAreCaseInsensitive) {
  Result<Query> q = Parse(
      "select o from c in cells, o in c.c_objects "
      "where c.cell_id = 'c1' for read");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->object_key, "c1");
}

TEST_F(ParserTest, WhitespaceAndIdentifierCharacters) {
  // Keywords in any case, separated by any C-locale space character;
  // identifiers of letters, digits and '_', possibly starting with a digit.
  Result<Query> q = Parse(
      "sElEcT\tr_2\nFrOm c_1\tIn cells,\n\tr_2 iN c_1.robots\r\n"
      "wHeRe c_1.cell_id\t=\t'c1' AnD r_2.robot_id = 'r1'\vFoR\fUpDaTe");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->relation, f_.cells);
  EXPECT_EQ(q->object_key, "c1");
  EXPECT_EQ(nf2::PathToString(q->path), "robots['r1']");
  EXPECT_EQ(q->kind, AccessKind::kUpdate);

  q = Parse("SELECT 9c FROM 9c IN cells WHERE 9c.cell_id='c 1'FOR delete");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->object_key, "c 1");
  EXPECT_TRUE(q->path.empty());
  EXPECT_EQ(q->kind, AccessKind::kDelete);
  EXPECT_EQ(q->name,
            "SELECT 9c FROM 9c IN cells WHERE 9c.cell_id='c 1'FOR delete");
}

/// One rejected query text with the exact status it must produce.
struct ErrorCase {
  std::string text;
  StatusCode code;
  std::string message;
};

void ExpectErrors(const nf2::Catalog& catalog,
                  const std::vector<ErrorCase>& cases) {
  for (const ErrorCase& c : cases) {
    Result<Query> q = ParseQuery(catalog, c.text);
    ASSERT_FALSE(q.ok()) << c.text;
    EXPECT_EQ(q.status().code(), c.code) << c.text << ": " << q.status();
    EXPECT_EQ(q.status().message(), c.message) << c.text;
  }
}

constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;
constexpr StatusCode kNotFound = StatusCode::kNotFound;

TEST_F(ParserTest, SyntaxErrors) {
  const std::string kFor = "expected FOR READ/UPDATE/DELETE";
  const std::string kKind = "FOR must be READ, UPDATE or DELETE";
  ExpectErrors(*f_.catalog, {
      {"", kInvalid, "query must start with SELECT"},
      {"FROM c IN cells FOR READ", kInvalid, "query must start with SELECT"},
      {"'SELECT' c FROM c IN cells FOR READ", kInvalid,
       "query must start with SELECT"},
      {"SELECTc FROM c IN cells FOR READ", kInvalid,
       "query must start with SELECT"},
      {"SELECT", kInvalid, "SELECT needs a range variable"},
      {"SELECT 'c' FROM c IN cells FOR READ", kInvalid,
       "SELECT needs a range variable"},
      {"SELECT c IN cells FOR READ", kInvalid,
       "expected FROM after SELECT <var>"},
      {"SELECT c FROM", kInvalid, "expected range variable in FROM"},
      {"SELECT c FROM . IN cells", kInvalid,
       "expected range variable in FROM"},
      {"SELECT c FROM c IN cells,", kInvalid,
       "expected range variable in FROM"},
      {"SELECT c FROM c cells FOR READ", kInvalid,
       "expected IN after range variable 'c'"},
      {"SELECT c FROM c INTO cells FOR READ", kInvalid,
       "expected IN after range variable 'c'"},
      {"SELECT c FROM c IN", kInvalid, "expected relation or path after IN"},
      {"SELECT c FROM c IN 'cells' FOR READ", kInvalid,
       "expected relation or path after IN"},
      {"SELECT r FROM c IN cells, r IN c.", kInvalid,
       "expected attribute after 'c.'"},
      {"SELECT r FROM c IN cells, r IN c.=robots", kInvalid,
       "expected attribute after 'c.'"},
      {"SELECT c FROM c IN cells", kInvalid, kFor},
      {"SELECT c FROM c IN cells = 'x' FOR READ", kInvalid, kFor},
      {"SELECT c FROM c IN cells WHERE c.cell_id = 'c1' OR c.cell_id = 'c2' "
       "FOR READ",
       kInvalid, kFor},
      {"SELECT c FROM c IN cells FORREAD", kInvalid, kFor},
      {"SELECT c FROM c IN cells FOR BROWSE", kInvalid, kKind},
      {"SELECT c FROM c IN cells FOR", kInvalid, kKind},
      {"SELECT c FROM c IN cells FOR ,", kInvalid, kKind},
      {"SELECT c FROM c IN cells FOR READ trailing", kInvalid,
       "trailing input after FOR READ"},
      {"SELECT c FROM c IN cells for update ,", kInvalid,
       "trailing input after FOR UPDATE"},
      {"SELECT c FROM c IN cells For Delete 'x'", kInvalid,
       "trailing input after FOR DELETE"},
      {"SELECT c FROM c IN cells WHERE", kInvalid,
       "expected <var>.<attr> in WHERE"},
      {"SELECT c FROM c IN cells WHERE c.cell_id = 'c1' AND", kInvalid,
       "expected <var>.<attr> in WHERE"},
      {"SELECT c FROM c IN cells WHERE c cell_id = 'c1'", kInvalid,
       "expected '.' after 'c' in WHERE"},
      {"SELECT c FROM c IN cells WHERE c.", kInvalid,
       "expected attribute in WHERE"},
      {"SELECT c FROM c IN cells WHERE c.'cell_id'", kInvalid,
       "expected attribute in WHERE"},
      {"SELECT c FROM c IN cells WHERE c.cell_id 'c1'", kInvalid,
       "only equality predicates are supported"},
      {"SELECT c FROM c IN cells WHERE c.cell_id = c1 FOR READ", kInvalid,
       "expected 'literal' in WHERE"},
      {"SELECT c FROM c IN cells WHERE c.cell_id =", kInvalid,
       "expected 'literal' in WHERE"},
      // Lexical errors surface when the parser reaches the bad token.
      {"SELECT c FROM c IN cells WHERE c.cell_id = 'c1", kInvalid,
       "unterminated string literal"},
      {"'", kInvalid, "unterminated string literal"},
      {"SELECT c FROM c IN cells FOR READ ;", kInvalid,
       "unexpected character ';' in query"},
      {"SELECT c FROM c IN cells WHERE c.cell_id < 'c1'", kInvalid,
       "unexpected character '<' in query"},
      {"SELECT c-1 FROM c IN cells FOR READ", kInvalid,
       "unexpected character '-' in query"},
      {"SELECT * FROM c IN cells FOR READ", kInvalid,
       "unexpected character '*' in query"},
      // A non-ASCII byte is neither a letter nor a space in the C locale.
      {"SELECT c FROM c IN c\xC3\xA9lls FOR READ", kInvalid,
       "unexpected character '\xC3' in query"},
      {"SELECT c FROM c IN cells\xA0 FOR READ", kInvalid,
       "unexpected character '\xA0' in query"},
      {"SELECT c\0 FROM c IN cells FOR READ"s, kInvalid,
       "unexpected character '\0' in query"s},
      // An error before a bad token wins over the lexical error.
      {"SELECT c IN 'c1", kInvalid, "expected FROM after SELECT <var>"},
  });
}

TEST_F(ParserTest, SemanticErrors) {
  const std::string kNoKey =
      "' is not a key attribute; only key-equality predicates are in the "
      "supported fragment";
  ExpectErrors(*f_.catalog, {
      {"SELECT x FROM x IN nonexistent FOR READ", kNotFound,
       "relation 'nonexistent' not found"},
      {"SELECT x FROM x IN Cells FOR READ", kNotFound,
       "relation 'Cells' not found"},
      {"SELECT r FROM c IN cells, r IN z.robots FOR READ", kInvalid,
       "unknown range variable 'z' in FROM"},
      {"SELECT c FROM c IN c.robots FOR READ", kInvalid,
       "unknown range variable 'c' in FROM"},
      {"SELECT z FROM c IN cells FOR READ", kInvalid,
       "SELECT variable 'z' is not bound in FROM"},
      {"SELECT r FROM c IN cells, r IN c.cell_id FOR READ", kInvalid,
       "'cell_id' is not a set or list attribute"},
      {"SELECT r FROM c IN cells, r IN c.nothing FOR READ", kNotFound,
       "tuple 'cells' has no field 'nothing'"},
      {"SELECT x FROM c IN cells, r IN c.robots, e IN r.effectors, "
       "x IN e.tool FOR READ",
       kInvalid, "attribute 'ref' is not a tuple"},
      {"SELECT r FROM c IN cells, r IN c.robots "
       "WHERE r.trajectory = 't' FOR READ",
       kInvalid, "'trajectory" + kNoKey},
      {"SELECT c FROM c IN cells WHERE c.nothing = 'x' FOR READ", kNotFound,
       "tuple 'cells' has no field 'nothing'"},
      {"SELECT c FROM c IN cells WHERE z.cell_id = 'x' FOR READ", kInvalid,
       "unknown range variable 'z' in WHERE"},
      {"SELECT e FROM c IN cells, r IN c.robots, e IN r.effectors "
       "WHERE e.eff_id = 'e1' FOR READ",
       kInvalid, "attribute 'ref' is not a tuple"},
      {"SELECT c FROM c IN cells, e IN effectors FOR READ", kInvalid,
       "only the first FROM binding may range over a relation (joins are "
       "outside the lock-relevant fragment)"},
      {"SELECT e FROM c IN cells, r IN c.robots, "
       "e IN r.effectors WHERE c.cell_id = 'c1' FOR READ",
       kInvalid,
       "intermediate range variable 'r' must be selected by a key "
       "predicate"},
      // A semantic error stops the parse before a later lexical error.
      {"SELECT c FROM c IN cells WHERE c.tool = 'x' ;", kNotFound,
       "tuple 'cells' has no field 'tool'"},
      // ... but the token after a relation is read before the lookup.
      {"SELECT c FROM c IN nowhere ;", kInvalid,
       "unexpected character ';' in query"},
  });
}

TEST_F(ParserTest, AccessKindMustBeAKeyword) {
  ExpectErrors(*f_.catalog, {
      {"SELECT c FROM c IN cells FOR 'read'", kInvalid,
       "FOR must be READ, UPDATE or DELETE"},
      {"SELECT c FROM c IN cells FOR 'UPDATE'", kInvalid,
       "FOR must be READ, UPDATE or DELETE"},
  });
}

TEST_F(ParserTest, RangeVariableIsBoundOnce) {
  ExpectErrors(*f_.catalog, {
      {"SELECT c FROM c IN cells, c IN c.robots FOR READ", kInvalid,
       "range variable 'c' is bound twice in FROM"},
      {"SELECT r FROM c IN cells, r IN c.robots, r IN c.robots FOR READ",
       kInvalid, "range variable 'r' is bound twice in FROM"},
  });
}

TEST_F(ParserTest, OneKeyPredicatePerVariable) {
  ExpectErrors(*f_.catalog, {
      {"SELECT c FROM c IN cells "
       "WHERE c.cell_id = 'c1' AND c.cell_id = 'c2' FOR READ",
       kInvalid, "range variable 'c' has a second key predicate"},
      {"SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' "
       "AND r.robot_id = 'r1' AND r.robot_id = 'r1' FOR READ",
       kInvalid, "range variable 'r' has a second key predicate"},
  });
}

TEST_F(ParserTest, MutatedFigure3TextsFailCleanly) {
  // Truncations, byte flips and stray quotes of the Fig. 3 texts: every
  // parse ends OK or with one of the parser's two error codes.
  const std::vector<std::string> texts = {
      "SELECT o FROM c IN cells, o IN c.c_objects "
      "WHERE c.cell_id = 'c1' FOR READ",
      "SELECT r FROM c IN cells, r IN c.robots "
      "WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE",
      "SELECT r FROM c IN cells, r IN c.robots "
      "WHERE c.cell_id = 'c1' AND r.robot_id = 'r2' FOR UPDATE",
  };
  Rng rng(0x51D3C0DE);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < 12'000; ++i) {
    std::string text = texts[rng.Uniform(texts.size())];
    const int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.Uniform(text.size() + 1);
      switch (rng.Uniform(3)) {
        case 0:
          text.resize(pos);
          break;
        case 1:
          if (pos < text.size()) {
            text[pos] = static_cast<char>(text[pos] ^ (1u << rng.Uniform(8)));
          }
          break;
        default:
          text.insert(pos, 1, '\'');
          break;
      }
    }
    Result<Query> q = Parse(text);
    if (q.ok()) {
      ++parsed;
      EXPECT_EQ(q->name, text);
      continue;
    }
    ++rejected;
    const StatusCode code = q.status().code();
    EXPECT_TRUE(code == kInvalid || code == kNotFound)
        << text << ": " << q.status();
    EXPECT_FALSE(q.status().message().empty()) << text;
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST_F(ParserTest, ParsedQ2ExecutesLikeHandBuiltQ2) {
  sim::Engine eng(f_.catalog.get(), f_.store.get());
  eng.authorization().Grant(1, f_.cells, authz::Right::kModify);
  Result<Query> parsed = Parse(
      "SELECT r FROM c IN cells, r IN c.robots "
      "WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE");
  ASSERT_TRUE(parsed.ok());
  Result<QueryResult> a = eng.RunShortTxn(1, *parsed);
  Result<QueryResult> b = eng.RunShortTxn(1, MakeQ2(f_.cells));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->values_read, b->values_read);
  EXPECT_EQ(a->target_locks, b->target_locks);
}

}  // namespace
}  // namespace codlock::query
