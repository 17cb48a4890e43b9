#include "lint/tokens.hpp"

#include <tuple>

namespace numaprof::lint {

TokenFile::TokenFile(std::string_view source) {
  LexResult lexed = lex(source);
  tokens = std::move(lexed.tokens);
  lines = lexed.lines;

  // Bracket matching.
  match.assign(tokens.size(), SIZE_MAX);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kPunct) continue;
    const std::string& t = tokens[i].text;
    if (t == "(" || t == "{" || t == "[") {
      stack.push_back(i);
    } else if (t == ")" || t == "}" || t == "]") {
      const char open = t == ")" ? '(' : (t == "}" ? '{' : '[');
      while (!stack.empty() && tokens[stack.back()].text[0] != open) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        match[stack.back()] = i;
        match[i] = stack.back();
        stack.pop_back();
      }
    }
  }

  // Simulator-DSL parallel regions.
  const TokenView v(*this);
  for (std::size_t i = 0; i + 1 < v.n(); ++i) {
    if (!(v.tok(i).is_ident("parallel_region") ||
          v.tok(i).is_ident("parallel_for")) ||
        !v.tok(i + 1).is_punct("(")) {
      continue;
    }
    DslRegion r;
    r.call = i;
    r.args = v.split_args(i + 1);
    if (r.args.size() < 3) continue;
    const auto [cb, ce] = r.args[1];
    r.parallel = !(ce == cb + 1 && v.tok(cb).kind == TokKind::kNumber &&
                   v.tok(cb).text == "1");
    std::string_view count;
    for (std::size_t k = cb; k < ce; ++k) {
      if (v.tok(k).kind == TokKind::kIdent) count = v.tok(k).text;
    }
    // Body: first '{' inside the last argument.
    const auto [lb, le] = r.args.back();
    for (std::size_t k = lb; k < le; ++k) {
      if (v.tok(k).is_punct("{") && v.matching(k) < v.n()) {
        r.begin = k + 1;
        r.end = v.matching(k);
        break;
      }
    }
    if (r.begin == 0) continue;
    std::tie(r.blocked, r.round_robin) = v.partitioning(r.begin, r.end, count);
    dsl_regions.push_back(std::move(r));
  }
}

Chain TokenView::read_chain(std::size_t i) const {
  Chain c;
  if (!valid(i) || tok(i).kind != TokKind::kIdent) {
    c.end = i;
    return c;
  }
  c.first = c.last = c.text = tok(i).text;
  std::size_t p = i + 1;
  while (valid(p)) {
    const std::string& t = tok(p).text;
    if (tok(p).kind == TokKind::kPunct &&
        (t == "." || t == "->" || t == "::") && valid(p + 1) &&
        tok(p + 1).kind == TokKind::kIdent) {
      c.text += (t == "::") ? "::" : ".";
      c.text += tok(p + 1).text;
      c.last = tok(p + 1).text;
      p += 2;
      continue;
    }
    if (tok(p).is_punct("[") && matching(p) < n()) {
      c.text += "[]";
      p = matching(p) + 1;
      continue;
    }
    break;
  }
  c.end = p;
  return c;
}

std::size_t TokenView::chain_start(std::size_t e) const noexcept {
  if (!valid(e)) return SIZE_MAX;
  std::size_t i = e;
  while (true) {
    if (tok(i).is_punct("]") && matching(i) < i) {
      i = matching(i);
      if (i == 0) return SIZE_MAX;
      --i;
      continue;
    }
    if (tok(i).kind != TokKind::kIdent) return SIZE_MAX;
    if (i == 0) return 0;
    const Token& prev = tok(i - 1);
    if (!(prev.is_punct(".") || prev.is_punct("->") || prev.is_punct("::"))) {
      return i;
    }
    // A link with nothing before it (a file that opens with `::a`).
    if (i < 2) return SIZE_MAX;
    i -= 2;
  }
}

TokenRanges TokenView::split_args(std::size_t open) const {
  TokenRanges args;
  const std::size_t close = matching(open);
  if (close >= n()) return args;
  std::size_t start = open + 1;
  std::size_t depth = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (tok(i).kind != TokKind::kPunct) continue;
    const std::string& t = tok(i).text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    if (t == ")" || t == "]" || t == "}") --depth;
    if (t == "," && depth == 0) {
      args.emplace_back(start, i);
      start = i + 1;
    }
  }
  if (start < close || close > open + 1) args.emplace_back(start, close);
  return args;
}

std::size_t TokenView::stmt_start(std::size_t i) const noexcept {
  while (i > 0) {
    const Token& t = tok(i - 1);
    if (t.is_punct(";") || t.is_punct("{") || t.is_punct("}")) break;
    --i;
  }
  return i;
}

std::size_t TokenView::assignment_before(std::size_t i) const noexcept {
  std::size_t eq = SIZE_MAX;
  for (std::size_t k = stmt_start(i); k < i; ++k) {
    if (tok(k).is_punct("=")) eq = k;
  }
  return eq;
}

std::size_t TokenView::directive_end(std::size_t i) const noexcept {
  std::uint32_t line = tok(i).line;
  for (++i; valid(i) && tok(i).line == line; ++i) {
    if (tok(i).is_punct("\\") && valid(i + 1) &&
        tok(i + 1).line == line + 1) {
      ++line;
    }
  }
  return i;
}

char TokenView::brace_kind(std::size_t open) const noexcept {
  if (open > 0 && (tok(open - 1).is_punct(")") ||
                   tok(open - 1).is_ident("else") ||
                   tok(open - 1).is_ident("do") ||
                   tok(open - 1).is_ident("try"))) {
    return 'c';
  }
  for (std::size_t k = stmt_start(open); k < open; ++k) {
    if (tok(k).is_ident("namespace")) return 'n';
    if (tok(k).is_ident("struct") || tok(k).is_ident("class") ||
        tok(k).is_ident("union") || tok(k).is_ident("enum")) {
      return 's';
    }
  }
  return 'i';
}

bool TokenView::written(std::size_t first, std::size_t end) const noexcept {
  if (valid(end) && tok(end).kind == TokKind::kPunct) {
    const std::string& s = tok(end).text;
    if (s == "=" || s == "+=" || s == "-=" || s == "*=" || s == "/=" ||
        s == "%=" || s == "&=" || s == "|=" || s == "^=" || s == "<<=" ||
        s == ">>=" || s == "++" || s == "--") {
      return true;
    }
  }
  return first > 0 &&
         (tok(first - 1).is_punct("++") || tok(first - 1).is_punct("--"));
}

std::pair<bool, bool> TokenView::partitioning(std::size_t begin,
                                              std::size_t end,
                                              std::string_view count) const {
  bool blocked = false, round_robin = false;
  for (std::size_t k = begin; k < end; ++k) {
    if (tok(k).is_ident("block_slice") || tok(k).is_ident("schedule")) {
      blocked = true;
    }
    if (tok(k).is_punct("+=") && valid(k + 1)) {
      const Chain c = read_chain(k + 1);
      if (!c.last.empty() &&
          (c.last == count || c.last == "threads" || c.last == "nthreads" ||
           c.last == "num_threads")) {
        round_robin = true;
      }
    }
  }
  return {blocked, round_robin};
}

bool thread_id_name(std::string_view s) noexcept {
  return s == "tid" || s == "index" || s == "thread_id" || s == "thread_num" ||
         s == "rank" || s == "me" || s == "worker";
}

bool known_linear_call(std::string_view s) noexcept {
  return s == "elem_addr" || s == "block_slice" || s == "min" || s == "max" ||
         s == "size" || s == "begin" || s == "end" || s == "data" ||
         s == "to_string" || s == "sizeof";
}

}  // namespace numaprof::lint
