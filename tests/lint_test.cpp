// Rule-engine tests for adapt_lint (src/lint). Two layers:
//
//  * Teeth tests — every rule must fire on a minimal violating source and
//    stay silent on the compliant variant, so the repo-wide zero-findings
//    ctest gate cannot rot into "the linter matches nothing".
//  * A randomized planted-violation test — a seeded adapt::Rng generates
//    source files with a known set of violations scattered through decoy
//    code, and the engine must report exactly that set (same seed, same
//    findings: the engine is pure string processing).
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace adapt::lint {
namespace {

/// Findings filtered to one rule (the synthetic sources below often trip
/// scoped rules like header-hygiene only when asked to).
std::vector<Finding> of_rule(const std::vector<Finding>& all,
                             std::string_view rule) {
  std::vector<Finding> out;
  for (const Finding& f : all) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

TEST(LintStripTest, RemovesCommentsAndStringsPreservingLines) {
  const std::string src =
      "int a; // line comment with std::mutex\n"
      "/* block\n"
      "   comment */ int b;\n"
      "const char* s = \"std::thread in a string\";\n"
      "char c = 'x';\n";
  const std::string stripped = strip_comments_and_strings(src);
  EXPECT_EQ(std::count(src.begin(), src.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("std::mutex"), std::string::npos);
  EXPECT_EQ(stripped.find("std::thread"), std::string::npos);
  EXPECT_EQ(stripped.find("comment"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(LintStripTest, HandlesEscapedQuotes) {
  const std::string src = "const char* s = \"a \\\" std::mutex b\"; int x;\n";
  const std::string stripped = strip_comments_and_strings(src);
  EXPECT_EQ(stripped.find("std::mutex"), std::string::npos);
  EXPECT_NE(stripped.find("int x;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// hot-alloc

TEST(LintHotAllocTest, FiresOnAllocationInHotBody) {
  const auto findings = of_rule(
      lint_source("src/lss/x.cpp",
                  "ADAPT_HOT void f() {\n  scratch_.push_back(1);\n}\n"),
      kRuleHotAlloc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_NE(findings[0].message.find("push_back"), std::string::npos);
}

TEST(LintHotAllocTest, FiresOnNewInHotBody) {
  const auto findings = of_rule(
      lint_source("src/lss/x.cpp",
                  "ADAPT_HOT int* f() { return new int(3); }\n"),
      kRuleHotAlloc);
  ASSERT_EQ(findings.size(), 1u);
}

TEST(LintHotAllocTest, SilentOnUnmarkedFunctionAndOutlinedSlowPath) {
  const auto findings = of_rule(
      lint_source("src/lss/x.cpp",
                  "void slow() { scratch_.push_back(1); }\n"
                  "ADAPT_HOT void fast() { if (full()) slow(); }\n"),
      kRuleHotAlloc);
  EXPECT_TRUE(findings.empty());
}

TEST(LintHotAllocTest, WordBoundariesDoNotMatchLookalikes) {
  // insert_or_assign must not trip `insert` or `assign`; renew_lease must
  // not trip `new`.
  const auto findings = of_rule(
      lint_source("src/lss/x.cpp",
                  "ADAPT_HOT void f() {\n"
                  "  shadow_.insert_or_assign(lba, loc);\n"
                  "  renew_lease();\n"
                  "}\n"),
      kRuleHotAlloc);
  EXPECT_TRUE(findings.empty());
}

TEST(LintHotAllocTest, SkipsTheMacroDefinitionItself) {
  const auto findings = of_rule(
      lint_source("src/common/annotations.h",
                  "#define ADAPT_HOT\n"
                  "void unrelated() { v.push_back(1); }\n"),
      kRuleHotAlloc);
  EXPECT_TRUE(findings.empty());
}

TEST(LintHotAllocTest, AllowCommentSuppressesOnLineAndLineAbove) {
  const auto same_line = of_rule(
      lint_source("src/lss/x.cpp",
                  "ADAPT_HOT void f() {\n"
                  "  s_.push_back(1);  // ADAPT_LINT_ALLOW(hot-alloc)\n"
                  "}\n"),
      kRuleHotAlloc);
  EXPECT_TRUE(same_line.empty());
  const auto line_above = of_rule(
      lint_source("src/lss/x.cpp",
                  "ADAPT_HOT void f() {\n"
                  "  // reserved at construction: ADAPT_LINT_ALLOW(hot-alloc)\n"
                  "  s_.push_back(1);\n"
                  "}\n"),
      kRuleHotAlloc);
  EXPECT_TRUE(line_above.empty());
  const auto wrong_rule = of_rule(
      lint_source("src/lss/x.cpp",
                  "ADAPT_HOT void f() {\n"
                  "  s_.push_back(1);  // ADAPT_LINT_ALLOW(nondeterminism)\n"
                  "}\n"),
      kRuleHotAlloc);
  EXPECT_EQ(wrong_rule.size(), 1u);
}

// ---------------------------------------------------------------------------
// trace-emit-guard

TEST(LintEmitGuardTest, FiresOnUnguardedEmit) {
  const auto findings = of_rule(
      lint_source("src/lss/x.cpp",
                  "void f() {\n  emit(trace_, TraceEvent{});\n}\n"),
      kRuleTraceEmitGuard);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintEmitGuardTest, SilentOnGuardedEmit) {
  const auto findings = of_rule(
      lint_source("src/lss/x.cpp",
                  "void f() {\n"
                  "  if (trace_ != nullptr) {\n"
                  "    emit(trace_, TraceEvent{});\n"
                  "  }\n"
                  "}\n"),
      kRuleTraceEmitGuard);
  EXPECT_TRUE(findings.empty());
}

TEST(LintEmitGuardTest, SinkLayerFilesAreExempt) {
  const std::string body = "void f() { emit(trace_, e); }\n";
  EXPECT_TRUE(of_rule(lint_source("src/lss/trace_sink.h", body),
                      kRuleTraceEmitGuard)
                  .empty());
  EXPECT_TRUE(
      of_rule(lint_source("src/obs/trace_log.cpp", body), kRuleTraceEmitGuard)
          .empty());
  EXPECT_FALSE(
      of_rule(lint_source("src/lss/engine.cpp", body), kRuleTraceEmitGuard)
          .empty());
}

TEST(LintEmitGuardTest, IdentifiersContainingEmitDoNotMatch) {
  const auto findings = of_rule(
      lint_source("src/lss/x.cpp", "void f() { submit(task); re_emit_x(); }\n"),
      kRuleTraceEmitGuard);
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// naked-threading

TEST(LintThreadingTest, FiresOutsideCommonAndNotInside) {
  const std::string body = "std::mutex mu;\nstd::thread worker;\n";
  const auto outside =
      of_rule(lint_source("src/sim/experiment.cpp", body),
              kRuleNakedThreading);
  EXPECT_EQ(outside.size(), 2u);
  EXPECT_TRUE(
      of_rule(lint_source("src/common/sync.h", body), kRuleNakedThreading)
          .empty());
}

TEST(LintThreadingTest, ThisThreadAndIncludesDoNotMatch) {
  const auto findings = of_rule(
      lint_source("src/proto/prototype.cpp",
                  "#include <thread>\n"
                  "void f() { std::this_thread::sleep_for(d); }\n"),
      kRuleNakedThreading);
  EXPECT_TRUE(findings.empty());
}

TEST(LintThreadingTest, TokensInCommentsAndStringsAreIgnored) {
  const auto findings = of_rule(
      lint_source("src/lss/x.cpp",
                  "// std::mutex is banned here\n"
                  "const char* msg = \"std::thread\";\n"),
      kRuleNakedThreading);
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// nondeterminism

TEST(LintNondeterminismTest, FiresOnEntropySources) {
  const auto findings = of_rule(
      lint_source("src/sim/x.cpp",
                  "int a = rand();\n"
                  "std::random_device rd;\n"
                  "std::mt19937 gen;\n"
                  "long t = time(nullptr);\n"),
      kRuleNondeterminism);
  EXPECT_EQ(findings.size(), 4u);
}

TEST(LintNondeterminismTest, RngModuleIsExemptAndDerivedNamesDoNotMatch) {
  EXPECT_TRUE(of_rule(lint_source("src/common/rng.h", "int a = rand();\n"),
                      kRuleNondeterminism)
                  .empty());
  // advance_time( and vtime_ contain "time" but are not calls to time().
  const auto findings = of_rule(
      lint_source("src/lss/engine.cpp",
                  "void f() { advance_time(now); runtime_check(); }\n"),
      kRuleNondeterminism);
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// header-hygiene

TEST(LintHeaderHygieneTest, FiresOnMissingPragmaAndMissingInclude) {
  const auto findings =
      lint_source("src/lss/x.h", "std::vector<int> v;\n");
  const auto hygiene = of_rule(findings, kRuleHeaderHygiene);
  ASSERT_EQ(hygiene.size(), 2u);
  EXPECT_NE(hygiene[0].message.find("#pragma once"), std::string::npos);
  EXPECT_NE(hygiene[1].message.find("<vector>"), std::string::npos);
}

TEST(LintHeaderHygieneTest, SilentWhenIncludesArePresent) {
  const auto findings = of_rule(
      lint_source("src/lss/x.h",
                  "#pragma once\n#include <vector>\nstd::vector<int> v;\n"),
      kRuleHeaderHygiene);
  EXPECT_TRUE(findings.empty());
}

TEST(LintHeaderHygieneTest, EverySrcHeaderIsInScopeButNotSources) {
  const std::string body = "std::vector<int> v;\n";
  // The rule started lss-only and now covers every src/ header.
  EXPECT_FALSE(
      of_rule(lint_source("src/obs/x.h", body), kRuleHeaderHygiene).empty());
  EXPECT_TRUE(
      of_rule(lint_source("src/lss/x.cpp", body), kRuleHeaderHygiene)
          .empty());
  EXPECT_TRUE(
      of_rule(lint_source("bench/x.h", body), kRuleHeaderHygiene).empty());
}

TEST(LintHeaderHygieneTest, StringViewDoesNotRequireString) {
  const auto findings = of_rule(
      lint_source("src/lss/x.h",
                  "#pragma once\n#include <string_view>\n"
                  "std::string_view name();\n"),
      kRuleHeaderHygiene);
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// findings JSON

TEST(LintJsonTest, ReportValidatesAndTamperedSchemaThrows) {
  Result result;
  result.files_scanned = 2;
  result.findings.push_back(
      Finding{std::string(kRuleHotAlloc), "src/lss/x.cpp", 7,
              "allocation call 'push_back' inside an ADAPT_HOT function "
              "body"});
  const std::string json = findings_json(result);
  EXPECT_NO_THROW(validate_lint_json(json));
  std::string tampered = json;
  const std::size_t at = tampered.find("adapt-lint-v1");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, 13, "adapt-lint-v9");
  EXPECT_THROW(validate_lint_json(tampered), std::invalid_argument);
  EXPECT_THROW(validate_lint_json("[]"), std::invalid_argument);
}

constexpr std::string_view kPinnedFindings =
    R"({"schema":"adapt-lint-v1","files_scanned":3,"rules":["hot-alloc",)"
    R"("trace-emit-guard","naked-threading","nondeterminism",)"
    R"("header-hygiene"],"findings":[{"rule":"hot-alloc",)"
    R"("file":"src/lss/engine.cpp","line":7,)"
    R"("message":"allocation call 'push_back' inside an ADAPT_HOT function bo)"
    R"(dy"},{"rule":"naked-threading","file":"src/obs/\"odd\" name.h",)"
    R"("line":12,"message":"std::mutex\toutside src/common/"}]})";

// The report's bytes are pinned: key order, separators and escaping.
TEST(LintJsonTest, FindingsJsonBytesArePinned) {
  Result result;
  result.files_scanned = 3;
  result.findings = {
      Finding{std::string(kRuleHotAlloc), "src/lss/engine.cpp", 7,
              "allocation call 'push_back' inside an ADAPT_HOT function "
              "body"},
      Finding{std::string(kRuleNakedThreading), "src/obs/\"odd\" name.h", 12,
              "std::mutex\toutside src/common/"},
  };
  const std::string json = findings_json(result);
  EXPECT_EQ(json, kPinnedFindings);
  EXPECT_NO_THROW(validate_lint_json(json));
}

TEST(LintJsonTest, EmptyReportValidates) {
  Result result;
  result.files_scanned = 0;
  EXPECT_NO_THROW(validate_lint_json(findings_json(result)));
}

// ---------------------------------------------------------------------------
// Randomized planted-violation sweep: build a synthetic file from decoy
// and violation snippets chosen by a seeded Rng, track the expected
// (rule, line) set, and require the engine to report exactly that set.

struct Snippet {
  std::string text;         ///< one line, no trailing newline
  std::string_view rule;    ///< empty for decoys
};

std::vector<Snippet> snippet_menu() {
  return {
      // Decoys: legal code that skirts every rule's tokens.
      {"int counter_ = 0;", {}},
      {"void touch() { counter_ += 1; }", {}},
      {"// comment mentioning std::mutex and rand()", {}},
      {"const char* label = \"emit( inside a string\";", {}},
      // No decoy or violation may contain "nullptr": the emit-guard rule's
      // back-window heuristic would treat it as the guard for a later
      // planted unguarded emit (correct engine behaviour, wrong test model).
      {"void renew_lease() { advance_time(7); }", {}},
      {"ADAPT_HOT int peek() { return counter_; }", {}},
      {"void note() { if (armed_) { record(7); } }", {}},
      // Violations, one line each so the expected line is the plant line.
      {"ADAPT_HOT void hot_bad() { scratch_.push_back(1); }", kRuleHotAlloc},
      {"ADAPT_HOT char* hot_new() { return new char; }", kRuleHotAlloc},
      {"void unguarded() { emit(trace_, e); }", kRuleTraceEmitGuard},
      {"std::mutex naked_mu_;", kRuleNakedThreading},
      {"std::thread naked_worker_;", kRuleNakedThreading},
      {"int entropy() { return rand(); }", kRuleNondeterminism},
      {"long stamp() { return time(0); }", kRuleNondeterminism},
  };
}

TEST(LintRandomizedTest, ReportsExactlyThePlantedViolations) {
  const std::vector<Snippet> menu = snippet_menu();
  Rng rng(0xADA97ULL);  // fixed seed: deterministic like everything else
  for (int round = 0; round < 20; ++round) {
    std::string source;
    std::set<std::pair<std::string, std::size_t>> expected;
    const std::size_t lines = 10 + rng() % 40;
    std::size_t line = 1;
    for (std::size_t i = 0; i < lines; ++i, ++line) {
      const Snippet& pick = menu[rng() % menu.size()];
      source += pick.text;
      source += '\n';
      if (!pick.rule.empty()) {
        expected.emplace(std::string(pick.rule), line);
      }
    }
    std::set<std::pair<std::string, std::size_t>> got;
    for (const Finding& f : lint_source("src/lss/gen.cpp", source)) {
      got.emplace(f.rule, f.line);
    }
    EXPECT_EQ(got, expected) << "round " << round << " source:\n" << source;
  }
}

}  // namespace
}  // namespace adapt::lint
