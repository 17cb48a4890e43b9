// Unit tests for the numalint lexer and antipattern recognizer on
// inline translation units (both recognized idioms: OpenMP-style C/C++
// and the repository's simulator workload DSL).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "lint/lexer.hpp"
#include "lint/numalint.hpp"
#include "lint/tokens.hpp"

namespace numaprof::lint {
namespace {

using core::Action;
using core::LintKind;
using core::PatternKind;
using core::StaticFinding;

// --- lexer ---------------------------------------------------------------

TEST(Lexer, TokenKindsAndLines) {
  const LexResult r = lex("int x = 42;\ndouble y = 1.5e-3;\n");
  ASSERT_GE(r.tokens.size(), 10u);
  EXPECT_EQ(r.tokens[0].kind, TokKind::kIdent);
  EXPECT_EQ(r.tokens[0].text, "int");
  EXPECT_EQ(r.tokens[3].kind, TokKind::kNumber);
  EXPECT_EQ(r.tokens[3].text, "42");
  EXPECT_EQ(r.tokens[3].line, 1u);
  // The float with exponent lexes as one token on line 2.
  const auto f = std::find_if(r.tokens.begin(), r.tokens.end(),
                              [](const Token& t) { return t.text == "1.5e-3"; });
  ASSERT_NE(f, r.tokens.end());
  EXPECT_EQ(f->kind, TokKind::kNumber);
  EXPECT_EQ(f->line, 2u);
}

TEST(Lexer, CommentsVanishButPreprocessorStays) {
  const LexResult r = lex("// line\n/* block\nspanning */ #pragma omp x\n");
  ASSERT_GE(r.tokens.size(), 4u);
  EXPECT_TRUE(r.tokens[0].is_punct("#"));
  EXPECT_TRUE(r.tokens[1].is_ident("pragma"));
  EXPECT_EQ(r.tokens[1].line, 3u);  // block comment counted its newline
}

TEST(Lexer, StringsHoldUnescapedContents) {
  const LexResult r = lex(R"src(auto s = "a\"b"; auto c = 'x';)src");
  const auto str = std::find_if(r.tokens.begin(), r.tokens.end(),
                                [](const Token& t) {
                                  return t.kind == TokKind::kString;
                                });
  ASSERT_NE(str, r.tokens.end());
  EXPECT_EQ(str->text, "a\"b");
  const auto chr = std::find_if(r.tokens.begin(), r.tokens.end(),
                                [](const Token& t) {
                                  return t.kind == TokKind::kChar;
                                });
  ASSERT_NE(chr, r.tokens.end());
  EXPECT_EQ(chr->text, "x");
}

TEST(Lexer, RawStrings) {
  const LexResult r = lex("auto s = R\"(no \" escape)\";");
  const auto str = std::find_if(r.tokens.begin(), r.tokens.end(),
                                [](const Token& t) {
                                  return t.kind == TokKind::kString;
                                });
  ASSERT_NE(str, r.tokens.end());
  EXPECT_EQ(str->text, "no \" escape");
}

TEST(Lexer, MultiCharPunctuationMerges) {
  const LexResult r = lex("a->b :: c += d << e <<= f");
  auto has = [&](std::string_view p) {
    return std::any_of(r.tokens.begin(), r.tokens.end(),
                       [&](const Token& t) { return t.is_punct(p); });
  };
  EXPECT_TRUE(has("->"));
  EXPECT_TRUE(has("::"));
  EXPECT_TRUE(has("+="));
  EXPECT_TRUE(has("<<"));
  EXPECT_TRUE(has("<<="));
}

TEST(Lexer, MalformedInputNeverThrows) {
  EXPECT_NO_THROW(lex("\"unterminated"));
  EXPECT_NO_THROW(lex("/* unterminated"));
  EXPECT_NO_THROW(lex("R\"(unterminated raw"));
  EXPECT_NO_THROW(lex(std::string(3, '\0') + "\x01\xff"));
}

// --- recognizer: OpenMP idiom -------------------------------------------

const StaticFinding* find(const LintResult& r, std::string_view variable,
                          LintKind kind) {
  for (const StaticFinding& f : r.findings) {
    if (f.variable == variable && f.kind == kind) return &f;
  }
  return nullptr;
}

TEST(Lint, SerialInitThenOmpParallelIsL1) {
  const LintResult r = lint_source(R"src(
static double grid[4096];
void init(long n) {
  for (long i = 0; i < n; ++i) grid[i] = 0.0;
}
void work(long n) {
  #pragma omp parallel for
  for (long i = 0; i < n; ++i) grid[i] += 1.0;
}
)src",
                                   "t.cpp");
  const StaticFinding* f = find(r, "grid", LintKind::kSerialFirstTouch);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->file, "t.cpp");
  EXPECT_EQ(f->line, 4u);       // the serial write
  EXPECT_EQ(f->decl_line, 2u);  // the declaration
  EXPECT_EQ(f->suggested, Action::kBlockwiseFirstTouch);
}

TEST(Lint, ParallelInitIsClean) {
  const LintResult r = lint_source(R"src(
static double grid[4096];
void init(long n) {
  #pragma omp parallel for
  for (long i = 0; i < n; ++i) grid[i] = 0.0;
}
void work(long n) {
  #pragma omp parallel for
  for (long i = 0; i < n; ++i) grid[i] += 1.0;
}
)src",
                                   "t.cpp");
  EXPECT_EQ(find(r, "grid", LintKind::kSerialFirstTouch), nullptr);
}

TEST(Lint, PerThreadCountersAreL2) {
  const LintResult r = lint_source(R"src(
static int hits[64];
void work() {
  #pragma omp parallel
  {
    int tid = omp_get_thread_num();
    hits[tid] += 1;
  }
}
)src",
                                   "t.cpp");
  const StaticFinding* f = find(r, "hits", LintKind::kFalseSharing);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->suggested, Action::kPadAlign);
}

TEST(Lint, CacheLineSizedElementsAreNotL2) {
  // 64-byte elements cannot false-share.
  const LintResult r = lint_source(R"src(
struct alignas(64) Pad { double v; char fill[56]; };
static Pad hits[64];
void work() {
  #pragma omp parallel
  {
    int tid = omp_get_thread_num();
    hits[tid].v += 1;
  }
}
)src",
                                   "t.cpp");
  EXPECT_EQ(find(r, "hits", LintKind::kFalseSharing), nullptr);
}

TEST(Lint, StackArrayEscapingIsL3) {
  const LintResult r = lint_source(R"src(
void work(long n) {
  double scratch[1024];
  #pragma omp parallel for
  for (long i = 0; i < n; ++i) scratch[i % 1024] += 1.0;
}
)src",
                                   "t.cpp");
  const StaticFinding* f = find(r, "scratch", LintKind::kStackEscape);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->decl_line, 3u);
}

TEST(Lint, OmpSingleAndNumThreadsOneAreSerial) {
  const LintResult r = lint_source(R"src(
static double a[64];
static double b[64];
void work(long n) {
  #pragma omp parallel num_threads(1)
  for (long i = 0; i < n; ++i) a[i] = 0.0;
  #pragma omp parallel for
  for (long i = 0; i < n; ++i) b[i] = a[i];
}
)src",
                                   "t.cpp");
  // The num_threads(1) loop is a serial init; the consumer is parallel.
  EXPECT_NE(find(r, "a", LintKind::kSerialFirstTouch), nullptr);
  // b is only written in parallel: clean.
  EXPECT_EQ(find(r, "b", LintKind::kSerialFirstTouch), nullptr);
}

// --- recognizer: simulator DSL idiom ------------------------------------

TEST(Lint, DslSerialRegionThenParallelIsL1) {
  const LintResult r = lint_source(R"src(
void workload(simrt::Machine& m, const Config& cfg) {
  simos::VAddr data = 0;
  parallel_region(m, 1, "init", 0, [&](SimThread& t, uint32_t index) {
    data = t.malloc(cfg.elements * 8, "data", simos::PolicySpec::first_touch());
    store_lines(t, data, 0, cfg.elements);
  });
  parallel_region(m, cfg.threads, "compute", 0,
                  [&](SimThread& t, uint32_t index) {
    auto [b, e] = block_slice(cfg.elements, index, cfg.threads);
    load_lines(t, data, b, e);
  });
}
)src",
                                   "t.cpp");
  const StaticFinding* f = find(r, "data", LintKind::kSerialFirstTouch);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->line, 6u);
  EXPECT_EQ(f->expected, PatternKind::kBlocked);
  EXPECT_EQ(f->suggested, Action::kBlockwiseFirstTouch);
}

TEST(Lint, DslThreadGuardedWriteCountsAsSerial) {
  // A master-guarded write inside a parallel region is still a serial
  // first touch (the miniamg rap_init idiom).
  const LintResult r = lint_source(R"src(
void workload(simrt::Machine& m, const Config& cfg) {
  simos::VAddr data = 0;
  parallel_region(m, cfg.threads, "setup", 0,
                  [&](SimThread& t, uint32_t index) {
    if (index == 0) {
      data = t.malloc(cfg.elements * 8, "data", simos::PolicySpec::first_touch());
      store_lines(t, data, 0, cfg.elements);
    }
    load_lines(t, data, index, index + 1);
  });
}
)src",
                                   "t.cpp");
  EXPECT_NE(find(r, "data", LintKind::kSerialFirstTouch), nullptr);
}

TEST(Lint, IndirectIndexingSuggestsInterleave) {
  const LintResult r = lint_source(R"src(
void workload(simrt::Machine& m, const Config& cfg) {
  simos::VAddr vec = 0;
  parallel_region(m, 1, "init", 0, [&](SimThread& t, uint32_t index) {
    vec = t.malloc(cfg.rows * 8, "vec", simos::PolicySpec::first_touch());
    store_lines(t, vec, 0, cfg.rows);
  });
  parallel_region(m, cfg.threads, "solve", 0,
                  [&](SimThread& t, uint32_t index) {
    t.load(elem_addr(vec, column_of(index, cfg.rows)));
  });
}
)src",
                                   "t.cpp");
  const StaticFinding* f = find(r, "vec", LintKind::kSerialFirstTouch);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->expected, PatternKind::kFullRange);
  EXPECT_EQ(f->suggested, Action::kInterleave);
  // Indirect accesses also suppress L4 even for interleaved policies.
  EXPECT_EQ(find(r, "vec", LintKind::kInterleaveMisuse), nullptr);
}

TEST(Lint, SoaStrideSuggestsRegroupAos) {
  const LintResult r = lint_source(R"src(
void workload(simrt::Machine& m, const Config& cfg) {
  simos::VAddr buffer = 0;
  const auto field_addr = [&](uint64_t option, uint32_t field) {
    return buffer + (field * cfg.options + option) * 8;
  };
  parallel_region(m, 1, "init", 0, [&](SimThread& t, uint32_t index) {
    buffer = t.malloc(cfg.options * 5 * 8, "buffer", simos::PolicySpec::first_touch());
    store_lines(t, buffer, 0, cfg.options * 5);
  });
  parallel_region(m, cfg.threads, "price", 0,
                  [&](SimThread& t, uint32_t index) {
    t.load(field_addr(index, 2));
  });
}
)src",
                                   "t.cpp");
  const StaticFinding* f = find(r, "buffer", LintKind::kSerialFirstTouch);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->expected, PatternKind::kStaggeredOverlap);
  EXPECT_EQ(f->suggested, Action::kRegroupAos);
}

TEST(Lint, InterleavedBlockLocalAccessIsL4) {
  const LintResult r = lint_source(R"src(
void workload(simrt::Machine& m, const Config& cfg) {
  simos::PolicySpec policy = simos::PolicySpec::interleave();
  simos::VAddr grid = 0;
  parallel_region(m, cfg.threads, "relax", 0,
                  [&](SimThread& t, uint32_t index) {
    if (index == 0) grid = t.malloc(cfg.elements * 8, "grid", policy);
    auto [b, e] = block_slice(cfg.elements, index, cfg.threads);
    store_lines(t, grid, b, e);
  });
}
)src",
                                   "t.cpp");
  const StaticFinding* f = find(r, "grid", LintKind::kInterleaveMisuse);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->suggested, Action::kBlockwiseFirstTouch);
}

TEST(Lint, FirstTouchPolicyIsNotL4) {
  const LintResult r = lint_source(R"src(
void workload(simrt::Machine& m, const Config& cfg) {
  simos::PolicySpec policy = simos::PolicySpec::first_touch();
  simos::VAddr grid = 0;
  parallel_region(m, cfg.threads, "relax", 0,
                  [&](SimThread& t, uint32_t index) {
    if (index == 0) grid = t.malloc(cfg.elements * 8, "grid", policy);
    auto [b, e] = block_slice(cfg.elements, index, cfg.threads);
    store_lines(t, grid, b, e);
  });
}
)src",
                                   "t.cpp");
  EXPECT_EQ(find(r, "grid", LintKind::kInterleaveMisuse), nullptr);
}

TEST(Lint, RegisteredStackVariableEscapingIsL3) {
  const LintResult r = lint_source(R"src(
void workload(simrt::Machine& m, Profiler& profiler, const Config& cfg) {
  simos::VAddr nodes = 0x7000;
  profiler.registry().register_stack_variable("nodes(stack)", 0, nodes,
                                              cfg.elements * 8);
  parallel_region(m, cfg.threads, "compute", 0,
                  [&](SimThread& t, uint32_t index) {
    load_lines(t, nodes, 0, cfg.elements);
  });
}
)src",
                                   "t.cpp");
  const StaticFinding* f = find(r, "nodes(stack)", LintKind::kStackEscape);
  ASSERT_NE(f, nullptr);
}

// --- plumbing ------------------------------------------------------------

TEST(Lint, FindingsAreSortedAndRendered) {
  const LintResult r = lint_source(R"src(
static double b[64];
static double a[64];
void init(long n) {
  for (long i = 0; i < n; ++i) { a[i] = 0.0; b[i] = 0.0; }
}
void work(long n) {
  #pragma omp parallel for
  for (long i = 0; i < n; ++i) a[i] += b[i];
}
)src",
                                   "t.cpp");
  ASSERT_GE(r.findings.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      r.findings.begin(), r.findings.end(),
      [](const StaticFinding& x, const StaticFinding& y) {
        return std::tie(x.file, x.line, x.variable) <
               std::tie(y.file, y.line, y.variable);
      }));
  const std::string text = render_findings(r.findings);
  EXPECT_NE(text.find("t.cpp:5"), std::string::npos);
  EXPECT_NE(text.find("[L1 serial-first-touch]"), std::string::npos);
  EXPECT_EQ(render_findings({}), "no findings\n");
}

TEST(Lint, KindCodesAreStable) {
  EXPECT_EQ(kind_code(LintKind::kSerialFirstTouch), "L1");
  EXPECT_EQ(kind_code(LintKind::kFalseSharing), "L2");
  EXPECT_EQ(kind_code(LintKind::kStackEscape), "L3");
  EXPECT_EQ(kind_code(LintKind::kInterleaveMisuse), "L4");
  EXPECT_EQ(kind_code(LintKind::kCrossSerialInit), "L5");
  EXPECT_EQ(kind_code(LintKind::kScheduleMismatch), "L6");
  EXPECT_EQ(kind_code(LintKind::kAliasHiddenInit), "L7");
  EXPECT_EQ(kind_code(LintKind::kReadMostly), "L8");
}

// --- lexer regressions ---------------------------------------------------

TEST(Lexer, DigitSeparatorsStayOneToken) {
  const LexResult r = lex("long n = 1'000'000; auto c = 'x'; int h = 0x1'F;");
  const auto num = std::find_if(r.tokens.begin(), r.tokens.end(),
                                [](const Token& t) {
                                  return t.kind == TokKind::kNumber;
                                });
  ASSERT_NE(num, r.tokens.end());
  EXPECT_EQ(num->text, "1'000'000");
  // The separator-hardened number scan must not swallow the following
  // char literal's opening quote.
  const auto chr = std::find_if(r.tokens.begin(), r.tokens.end(),
                                [](const Token& t) {
                                  return t.kind == TokKind::kChar;
                                });
  ASSERT_NE(chr, r.tokens.end());
  EXPECT_EQ(chr->text, "x");
  const auto hex = std::find_if(r.tokens.begin(), r.tokens.end(),
                                [](const Token& t) {
                                  return t.text == "0x1'F";
                                });
  EXPECT_NE(hex, r.tokens.end());
}

TEST(Lexer, SeparatorExtentParsesAsFullStructSize) {
  // strtoull("1'6") used to stop at the quote (extent 1), shrinking the
  // struct to one cache line and mis-firing L2 on a 128-byte element.
  const char* src = R"lint(
struct Slot { double v[1'6]; };
static Slot slots[64];
void tally(long n) {
  #pragma omp parallel for
  for (long i = 0; i < n; ++i) {
    int tid = omp_get_thread_num();
    slots[tid].v[0] += 1.0;
  }
}
)lint";
  const LintResult r = lint_source(src, "sep.cpp");
  for (const StaticFinding& f : r.findings) {
    EXPECT_NE(f.kind, LintKind::kFalseSharing) << f.message;
  }
}

TEST(Lexer, BackslashNewlineInStringSplicesAndCountsLine) {
  const LexResult r = lex("auto s = \"ab\\\ncd\";\nint marker = 1;\n");
  const auto str = std::find_if(r.tokens.begin(), r.tokens.end(),
                                [](const Token& t) {
                                  return t.kind == TokKind::kString;
                                });
  ASSERT_NE(str, r.tokens.end());
  EXPECT_EQ(str->text, "abcd");  // spliced, not "ab\ncd"
  const auto marker = std::find_if(r.tokens.begin(), r.tokens.end(),
                                   [](const Token& t) {
                                     return t.is_ident("marker");
                                   });
  ASSERT_NE(marker, r.tokens.end());
  EXPECT_EQ(marker->line, 3u);  // the spliced newline still counts
}

TEST(Lint, ContinuedPragmaStillOpensParallelRegion) {
  // A backslash-continued `#pragma omp` directive spans two lines; the
  // region scan must follow the continuation instead of stopping cold.
  const char* src =
      "static double table[1 << 16];\n"
      "void setup(long n) {\n"
      "  for (long i = 0; i < n; ++i) table[i] = 0.0;\n"
      "}\n"
      "void consume(long n) {\n"
      "  #pragma omp parallel for \\\n"
      "      schedule(static)\n"
      "  for (long i = 0; i < n; ++i) table[i] += 1.0;\n"
      "}\n";
  const LintResult r = lint_source(src, "cont.cpp");
  const auto l1 = std::find_if(r.findings.begin(), r.findings.end(),
                               [](const StaticFinding& f) {
                                 return f.kind == LintKind::kSerialFirstTouch;
                               });
  ASSERT_NE(l1, r.findings.end());
  EXPECT_EQ(l1->variable, "table");
}

// --- shared token front end ----------------------------------------------

TEST(Tokens, MatchingToleratesUnbalancedAndInvertedBrackets) {
  // ')' pops the unclosed '[' and pairs with '('; the stray closers and
  // the trailing opener have no partner.
  const TokenFile file("( [ ) ] } {");
  const TokenView v(file);
  ASSERT_EQ(v.n(), 6u);
  EXPECT_EQ(v.matching(0), 2u);
  EXPECT_EQ(v.matching(2), 0u);
  for (const std::size_t i : {1u, 3u, 4u, 5u}) EXPECT_EQ(v.matching(i), v.n());

  const TokenFile inverted(") ( x");
  const TokenView w(inverted);
  EXPECT_EQ(w.matching(0), w.n());
  EXPECT_EQ(w.matching(1), w.n());
  EXPECT_EQ(w.matching(2), w.n());  // not a bracket
}

TEST(Tokens, ChainsReadForwardAndBackward) {
  const TokenFile file("a.b[i]->c = 1;");
  const TokenView v(file);
  const Chain c = v.read_chain(0);
  EXPECT_EQ(c.text, "a.b[].c");
  EXPECT_EQ(c.first, "a");
  EXPECT_EQ(c.last, "c");
  EXPECT_EQ(c.end, 8u);  // the '='
  EXPECT_EQ(v.chain_start(7), 0u);  // from 'c'
  EXPECT_EQ(v.chain_start(5), 0u);  // from the subscript's ']'
  EXPECT_EQ(v.chain_start(8), SIZE_MAX);  // '=' ends no chain
  const Chain none = v.read_chain(8);
  EXPECT_TRUE(none.text.empty());
  EXPECT_EQ(none.end, 8u);
}

TEST(Tokens, ChainsAtTheFileStart) {
  const TokenFile file("x.a = 1;");
  EXPECT_EQ(TokenView(file).chain_start(0), 0u);
  EXPECT_EQ(TokenView(file).chain_start(2), 0u);
  for (const char* src : {"::a = {1};", ".a = 1;", "->a = 1;"}) {
    const TokenFile f(src);
    const TokenView v(f);
    EXPECT_EQ(v.chain_start(1), SIZE_MAX) << src;
    EXPECT_EQ(v.chain_start(0), SIZE_MAX) << src;
    const Chain c = v.read_chain(1);
    EXPECT_EQ(c.text, "a") << src;
    EXPECT_EQ(c.end, 2u) << src;
  }
}

TEST(Tokens, SplitArgsHonorsNestingAndEmptyLists) {
  const TokenFile file("f(a, g(b, c), {d, e}, x[1], );");
  const TokenView v(file);
  const TokenRanges args = v.split_args(1);
  ASSERT_EQ(args.size(), 5u);
  EXPECT_EQ(args[0], std::make_pair(std::size_t{2}, std::size_t{3}));
  EXPECT_EQ(v.tok(args[1].first).text, "g");
  EXPECT_EQ(v.tok(args[1].second).text, ",");
  EXPECT_EQ(v.tok(args[2].first).text, "{");
  EXPECT_EQ(v.tok(args[3].first).text, "x");
  EXPECT_EQ(args[4].first, args[4].second);  // the empty trailing argument

  const TokenFile empty("f(); g(,); h(");
  const TokenView e(empty);
  EXPECT_TRUE(e.split_args(1).empty());
  EXPECT_EQ(e.split_args(5).size(), 2u);
  EXPECT_TRUE(e.split_args(10).empty());  // unmatched '('
}

TEST(Tokens, StatementStartAndAssignment) {
  const TokenFile file("x = 1; { y = z = 2; }");
  const TokenView v(file);
  EXPECT_EQ(v.stmt_start(0), 0u);
  EXPECT_EQ(v.stmt_start(2), 0u);
  EXPECT_EQ(v.stmt_start(9), 5u);  // after the '{'
  EXPECT_EQ(v.assignment_before(9), 8u);
  EXPECT_EQ(v.assignment_before(0), SIZE_MAX);
}

TEST(Lint, GarbageInputNeverThrows) {
  EXPECT_NO_THROW(lint_source("", "empty.cpp"));
  EXPECT_NO_THROW(lint_source("{{{{((((", "unbalanced.cpp"));
  EXPECT_NO_THROW(lint_source(")))}}}", "inverted.cpp"));
  EXPECT_NO_THROW(lint_source("#pragma omp parallel", "dangling.cpp"));
  EXPECT_NO_THROW(
      lint_source("int a[4]; void f() { a[0 = 1; }", "broken.cpp"));
  // A chain link as the very first token: the backward chain walk from
  // token 1 must stop at the file start instead of stepping before it.
  EXPECT_NO_THROW(lint_source("::a = {1};", "scope_first.cpp"));
  EXPECT_NO_THROW(lint_source(".a = [x]{ return 1; };", "dot_first.cpp"));
  EXPECT_NO_THROW(lint_source("->a = {1};", "arrow_first.cpp"));
}

TEST(Lint, StatsCountFilesLinesTokens) {
  const LintResult r = lint_source("int x;\nint y;\n", "t.cpp");
  EXPECT_EQ(r.stats.files, 1u);
  EXPECT_GE(r.stats.lines, 2u);
  EXPECT_EQ(r.stats.tokens, 6u);
}

}  // namespace
}  // namespace numaprof::lint
