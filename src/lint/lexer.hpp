// A lightweight C/C++ lexer for numalint (no libclang dependency).
//
// Produces a flat token stream with line numbers: identifiers, literals,
// and (multi-char aware) punctuation. Comments vanish; preprocessor
// directives stay in the stream ('#' is a punct token) so the engines can
// see `#pragma omp parallel`. This is deliberately NOT a full C++ front
// end — both lint engines work on token shapes, which is all the
// antipattern catalog needs, and lex each file once through TokenFile
// (lint/tokens.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace numaprof::lint {

enum class TokKind : std::uint8_t {
  kIdent,   // identifiers and keywords
  kNumber,  // integer / float literals (incl. suffixes)
  kString,  // "..." and R"(...)" — text holds the *contents*, unescaped
  kChar,    // '...'
  kPunct,   // operators and punctuation, multi-char merged ("::", "->", ...)
};

/// Number of TokKind enumerators.
inline constexpr int kTokKindCount = 5;

std::string_view to_string(TokKind k) noexcept;

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  std::uint32_t line = 1;

  bool is(std::string_view t) const noexcept { return text == t; }
  bool is_ident(std::string_view t) const noexcept {
    return kind == TokKind::kIdent && text == t;
  }
  bool is_punct(std::string_view t) const noexcept {
    return kind == TokKind::kPunct && text == t;
  }
};

struct LexResult {
  std::vector<Token> tokens;
  std::uint32_t lines = 0;  // total source lines seen
};

/// Tokenizes `source`. Never throws on malformed input: unterminated
/// strings/comments lex to end-of-file (lint must survive any input).
LexResult lex(std::string_view source);

}  // namespace numaprof::lint
