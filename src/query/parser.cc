#include "query/parser.h"

#include <algorithm>
#include <initializer_list>
#include <vector>

namespace codlock::query {

namespace {

enum class TokKind : uint8_t { kIdent, kString, kComma, kDot, kEquals, kEnd };

/// A token is a view into the query text; a string literal's view excludes
/// its quotes.
struct Token {
  TokKind kind = TokKind::kEnd;
  std::string_view text;
};

// The fragment's character classes are those of the C locale: a byte
// outside ASCII is neither a space nor part of an identifier.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Tokenizer for the HDBL fragment: identifiers, 'string' literals and
/// the punctuation , . =
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// Reads the next token into \p t.  On a lexical error returns false
  /// and keeps the error in `error()`.
  bool Next(Token* t) {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
    if (pos_ == text_.size()) {
      *t = Token{TokKind::kEnd, {}};
      return true;
    }
    const size_t start = pos_++;
    const char c = text_[start];
    switch (c) {
      case ',':
        *t = Token{TokKind::kComma, text_.substr(start, 1)};
        return true;
      case '.':
        *t = Token{TokKind::kDot, text_.substr(start, 1)};
        return true;
      case '=':
        *t = Token{TokKind::kEquals, text_.substr(start, 1)};
        return true;
      case '\'': {
        const size_t end = text_.find('\'', pos_);
        if (end == std::string_view::npos) {
          error_ = Status::InvalidArgument("unterminated string literal");
          return false;
        }
        *t = Token{TokKind::kString, text_.substr(pos_, end - pos_)};
        pos_ = end + 1;
        return true;
      }
      default:
        break;
    }
    if (!IsIdentChar(c)) {
      error_ = Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "' in query");
      return false;
    }
    while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
    *t = Token{TokKind::kIdent, text_.substr(start, pos_ - start)};
    return true;
  }

  const Status& error() const { return error_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  Status error_;
};

/// True if \p t is the identifier \p kw (given in upper case), in any case.
bool IsKeyword(const Token& t, std::string_view kw) {
  if (t.kind != TokKind::kIdent || t.text.size() != kw.size()) return false;
  for (size_t i = 0; i < kw.size(); ++i) {
    char c = t.text[i];
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    if (c != kw[i]) return false;
  }
  return true;
}

Status Invalid(std::initializer_list<std::string_view> parts) {
  std::string msg;
  for (std::string_view part : parts) msg += part;
  return Status::InvalidArgument(std::move(msg));
}

/// One range variable of the FROM clause; the views point into the text.
struct Binding {
  std::string_view var;
  int parent = -1;             ///< index of the source binding (-1: relation)
  std::string_view attr_name;  ///< collection attribute (parent bindings)
  nf2::AttrId elem_attr = nf2::kInvalidAttr;  ///< bound element type
  bool keyed = false;          ///< a WHERE key predicate names it
  std::string_view key;        ///< that predicate's literal
};

/// Index of the binding of \p var, or -1.  Variables are bound once.
int FindBinding(const std::vector<Binding>& bindings, std::string_view var) {
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (bindings[i].var == var) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

Result<Query> ParseQuery(const nf2::Catalog& catalog, std::string_view text) {
  Lexer lexer(text);
  Token tok;

  if (!lexer.Next(&tok)) return lexer.error();
  if (!IsKeyword(tok, "SELECT")) {
    return Invalid({"query must start with SELECT"});
  }
  if (!lexer.Next(&tok)) return lexer.error();
  if (tok.kind != TokKind::kIdent) {
    return Invalid({"SELECT needs a range variable"});
  }
  const std::string_view select_var = tok.text;

  if (!lexer.Next(&tok)) return lexer.error();
  if (!IsKeyword(tok, "FROM")) {
    return Invalid({"expected FROM after SELECT <var>"});
  }

  // --- FROM clause: bindings. ---
  Query q;
  std::vector<Binding> bindings;
  bindings.reserve(4);
  while (true) {
    if (!lexer.Next(&tok)) return lexer.error();
    if (tok.kind != TokKind::kIdent) {
      return Invalid({"expected range variable in FROM"});
    }
    Binding b;
    b.var = tok.text;
    if (!lexer.Next(&tok)) return lexer.error();
    if (!IsKeyword(tok, "IN")) {
      return Invalid({"expected IN after range variable '", b.var, "'"});
    }
    if (!lexer.Next(&tok)) return lexer.error();
    if (tok.kind != TokKind::kIdent) {
      return Invalid({"expected relation or path after IN"});
    }
    const std::string_view first = tok.text;

    if (!lexer.Next(&tok)) return lexer.error();
    if (tok.kind == TokKind::kDot) {
      // v IN w.attr — range over a collection of an earlier binding.
      if (!lexer.Next(&tok)) return lexer.error();
      if (tok.kind != TokKind::kIdent) {
        return Invalid({"expected attribute after '", first, ".'"});
      }
      const int parent = FindBinding(bindings, first);
      if (parent < 0) {
        return Invalid({"unknown range variable '", first, "' in FROM"});
      }
      // Resolve the collection attribute from the parent's tuple type.
      Result<nf2::AttrId> coll = catalog.FindField(
          bindings[static_cast<size_t>(parent)].elem_attr, tok.text);
      if (!coll.ok()) return coll.status();
      Result<nf2::AttrId> elem = catalog.ElementAttr(*coll);
      if (!elem.ok()) {
        return Invalid({"'", tok.text, "' is not a set or list attribute"});
      }
      if (FindBinding(bindings, b.var) >= 0) {
        return Invalid({"range variable '", b.var, "' is bound twice in FROM"});
      }
      b.parent = parent;
      b.attr_name = tok.text;
      b.elem_attr = *elem;
      bindings.push_back(b);
      if (!lexer.Next(&tok)) return lexer.error();
    } else {
      // v IN relation — only legal for the first binding.
      if (!bindings.empty()) {
        return Invalid(
            {"only the first FROM binding may range over a relation "
             "(joins are outside the lock-relevant fragment)"});
      }
      Result<nf2::RelationId> rel = catalog.FindRelation(first);
      if (!rel.ok()) return rel.status();
      q.relation = *rel;
      b.elem_attr = catalog.relation(*rel).root;
      bindings.push_back(b);
    }

    if (tok.kind == TokKind::kComma) continue;
    // Past the FROM clause; tok is WHERE, FOR or end.
    break;
  }

  // --- WHERE clause: key-equality conjunctions. ---
  if (IsKeyword(tok, "WHERE")) {
    while (true) {
      if (!lexer.Next(&tok)) return lexer.error();
      if (tok.kind != TokKind::kIdent) {
        return Invalid({"expected <var>.<attr> in WHERE"});
      }
      const std::string_view var = tok.text;
      if (!lexer.Next(&tok)) return lexer.error();
      if (tok.kind != TokKind::kDot) {
        return Invalid({"expected '.' after '", var, "' in WHERE"});
      }
      if (!lexer.Next(&tok)) return lexer.error();
      if (tok.kind != TokKind::kIdent) {
        return Invalid({"expected attribute in WHERE"});
      }
      const std::string_view attr_name = tok.text;
      if (!lexer.Next(&tok)) return lexer.error();
      if (tok.kind != TokKind::kEquals) {
        return Invalid({"only equality predicates are supported"});
      }
      if (!lexer.Next(&tok)) return lexer.error();
      if (tok.kind != TokKind::kString) {
        return Invalid({"expected 'literal' in WHERE"});
      }
      const std::string_view literal = tok.text;

      const int bi = FindBinding(bindings, var);
      if (bi < 0) {
        return Invalid({"unknown range variable '", var, "' in WHERE"});
      }
      Binding& b = bindings[static_cast<size_t>(bi)];
      Result<nf2::AttrId> field = catalog.FindField(b.elem_attr, attr_name);
      if (!field.ok()) return field.status();
      if (!catalog.attr(*field).is_key) {
        return Invalid({"'", attr_name,
                        "' is not a key attribute; only key-equality "
                        "predicates are in the supported fragment"});
      }
      if (b.keyed) {
        return Invalid(
            {"range variable '", var, "' has a second key predicate"});
      }
      b.keyed = true;
      b.key = literal;

      if (!lexer.Next(&tok)) return lexer.error();
      if (IsKeyword(tok, "AND")) continue;
      break;
    }
  }

  // --- FOR clause. ---
  if (!IsKeyword(tok, "FOR")) {
    return Invalid({"expected FOR READ/UPDATE/DELETE"});
  }
  if (!lexer.Next(&tok)) return lexer.error();
  if (IsKeyword(tok, "READ")) {
    q.kind = AccessKind::kRead;
  } else if (IsKeyword(tok, "UPDATE")) {
    q.kind = AccessKind::kUpdate;
  } else if (IsKeyword(tok, "DELETE")) {
    q.kind = AccessKind::kDelete;
  } else {
    return Invalid({"FOR must be READ, UPDATE or DELETE"});
  }
  if (!lexer.Next(&tok)) return lexer.error();
  if (tok.kind != TokKind::kEnd) {
    return Invalid({"trailing input after FOR ", AccessKindName(q.kind)});
  }

  // --- Lower the selected variable to a navigation path. ---
  const int target = FindBinding(bindings, select_var);
  if (target < 0) {
    return Invalid(
        {"SELECT variable '", select_var, "' is not bound in FROM"});
  }
  // Walk from the target up to the relation binding, then reverse.  An
  // intermediate binding without a key is reported outermost first.
  int unkeyed = -1;
  for (int cur = target; cur > 0;
       cur = bindings[static_cast<size_t>(cur)].parent) {
    const Binding& b = bindings[static_cast<size_t>(cur)];
    if (!b.key.empty()) {
      q.path.push_back(nf2::PathStep::Elem(std::string(b.attr_name),
                                           std::string(b.key)));
    } else if (cur == target) {
      // Unselected final collection: the query ranges over all elements.
      q.path.push_back(nf2::PathStep::Field(std::string(b.attr_name)));
    } else {
      unkeyed = cur;
    }
  }
  if (unkeyed >= 0) {
    return Invalid({"intermediate range variable '",
                    bindings[static_cast<size_t>(unkeyed)].var,
                    "' must be selected by a key predicate"});
  }
  std::reverse(q.path.begin(), q.path.end());
  q.object_key = bindings[0].key;
  q.name = text;
  return q;
}

}  // namespace codlock::query
