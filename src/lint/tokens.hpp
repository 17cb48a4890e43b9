// The numalint token front end. Each translation unit is lexed,
// bracket-matched and scanned for simulator-DSL parallel regions once into
// a TokenFile; the L1-L4 recognizer (numalint.cpp) and the L5-L8 IR builder
// (ir.cpp) both walk it with TokenView, the one copy of the token helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/lexer.hpp"

namespace numaprof::lint {

/// Token ranges [begin, end), e.g. the depth-1 arguments of a call.
using TokenRanges = std::vector<std::pair<std::size_t, std::size_t>>;

/// A canonical chain: ident ('::'|'.'|'->' ident | '[...]')*, with '->'
/// spelled '.' and each subscript "[]" ("a.b[].c").
struct Chain {
  std::string text;
  std::string first;    // leading identifier
  std::string last;     // trailing identifier
  std::size_t end = 0;  // one past the last consumed token
};

/// A DSL parallel_region(machine, COUNT, "name", base, body) or
/// parallel_for(machine, COUNT, "name", base, total, sched, chunk, body)
/// call with a braced body.
struct DslRegion {
  std::size_t call = 0;            // the parallel_region/parallel_for token
  TokenRanges args;                // depth-1 arguments, at least three
  bool parallel = false;           // COUNT is not the literal 1
  std::size_t begin = 0, end = 0;  // inside the body's braces
  bool blocked = false;            // see TokenView::partitioning
  bool round_robin = false;
};

struct TokenFile {
  explicit TokenFile(std::string_view source);

  std::vector<Token> tokens;
  std::uint32_t lines = 0;
  /// Partner of each matched bracket, SIZE_MAX elsewhere. A closer pops
  /// unclosed openers until one of its own shape.
  std::vector<std::size_t> match;
  std::vector<DslRegion> dsl_regions;  // in token order
};

/// Read-only helpers over a TokenFile, which must outlive the view.
class TokenView {
 public:
  explicit TokenView(const TokenFile& file) noexcept : tf_(&file) {}

  std::size_t n() const noexcept { return tf_->tokens.size(); }
  const Token& tok(std::size_t i) const noexcept { return tf_->tokens[i]; }
  bool valid(std::size_t i) const noexcept { return i < n(); }
  /// The bracket matching the one at `i`, or n() when there is none.
  std::size_t matching(std::size_t i) const noexcept {
    return tf_->match[i] == SIZE_MAX ? n() : tf_->match[i];
  }
  const std::vector<DslRegion>& dsl_regions() const noexcept {
    return tf_->dsl_regions;
  }

  /// The chain starting at token `i`; empty, ending at `i`, unless `i` is
  /// an identifier.
  Chain read_chain(std::size_t i) const;
  /// First token of the chain that ends at token `e`, or SIZE_MAX.
  std::size_t chain_start(std::size_t e) const noexcept;
  /// Depth-1 argument ranges of the call whose '(' is at `open`; none for
  /// `()` or an unmatched '('.
  TokenRanges split_args(std::size_t open) const;
  /// One past the ';', '{' or '}' before `i`, or 0.
  std::size_t stmt_start(std::size_t i) const noexcept;
  /// The last '=' from the statement start to before `i`, or SIZE_MAX.
  std::size_t assignment_before(std::size_t i) const noexcept;
  /// One past the '#' directive starting at `i`, following `\`
  /// continuations onto the next line.
  std::size_t directive_end(std::size_t i) const noexcept;
  /// Kind of the block opening at '{' `open`: 'c' code (function body or
  /// control flow), 'n' namespace, 's' struct/class/union/enum, 'i'
  /// initializer.
  char brace_kind(std::size_t open) const noexcept;
  /// Whether the lvalue spanning [first, end) is written: an assignment,
  /// `++` or `--` follows it, or `++`/`--` precedes it.
  bool written(std::size_t first, std::size_t end) const noexcept;
  /// How a parallel body [begin, end) partitions work, as (blocked,
  /// round_robin): blocked when it calls block_slice / schedule,
  /// round-robin when it steps `+=` by a chain whose last identifier is
  /// `count` (the region's thread count) or a thread-count name.
  std::pair<bool, bool> partitioning(std::size_t begin, std::size_t end,
                                     std::string_view count) const;

 private:
  const TokenFile* tf_;
};

/// Index of the innermost of `ranges` (with begin/end members) holding
/// `pos`, the first one on ties; -1 when none does.
template <class Range>
int innermost(const std::vector<Range>& ranges, std::size_t pos) {
  int best = -1;
  std::size_t best_span = SIZE_MAX;
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    if (ranges[r].begin <= pos && pos < ranges[r].end &&
        ranges[r].end - ranges[r].begin < best_span) {
      best = static_cast<int>(r);
      best_span = ranges[r].end - ranges[r].begin;
    }
  }
  return best;
}

/// Identifiers that name the calling thread's index.
bool thread_id_name(std::string_view s) noexcept;

/// Calls that keep an index expression direct (linear / known helpers).
bool known_linear_call(std::string_view s) noexcept;

}  // namespace numaprof::lint
