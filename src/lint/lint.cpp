#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "obs/json.h"

namespace adapt::lint {
namespace {

bool is_word(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// 1-based line number of byte offset `pos`.
std::size_t line_of(std::string_view text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(pos),
                            '\n'));
}

/// True when `path` (already forward-slashed) has `dir` as a component
/// prefix anywhere, e.g. path_contains("a/src/obs/x.h", "src/obs/").
bool path_contains(std::string_view path, std::string_view dir) {
  return path.find(dir) != std::string_view::npos;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string normalized(std::string_view path) {
  std::string out(path);
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

/// Suppressions: (1-based line) -> rule names allowed on that line or the
/// one below it. Collected from the raw source so comment placement works.
using AllowMap = std::map<std::size_t, std::set<std::string>>;

AllowMap collect_allows(std::string_view source) {
  AllowMap allows;
  static constexpr std::string_view kMarker = "ADAPT_LINT_ALLOW(";
  std::size_t line = 1;
  std::size_t start = 0;
  while (start <= source.size()) {
    std::size_t eol = source.find('\n', start);
    if (eol == std::string_view::npos) eol = source.size();
    const std::string_view text = source.substr(start, eol - start);
    std::size_t at = 0;
    while ((at = text.find(kMarker, at)) != std::string_view::npos) {
      const std::size_t name_begin = at + kMarker.size();
      const std::size_t close = text.find(')', name_begin);
      if (close != std::string_view::npos) {
        allows[line].emplace(text.substr(name_begin, close - name_begin));
      }
      at = name_begin;
    }
    line += 1;
    start = eol + 1;
  }
  return allows;
}

bool is_allowed(const AllowMap& allows, std::size_t line,
                std::string_view rule) {
  for (const std::size_t l : {line, line > 1 ? line - 1 : line}) {
    const auto it = allows.find(l);
    if (it != allows.end() && it->second.count(std::string(rule)) != 0) {
      return true;
    }
  }
  return false;
}

/// Finds the next occurrence of identifier `token` at or after `from`,
/// word-bounded on both sides. Returns npos when absent.
std::size_t find_token(std::string_view text, std::string_view token,
                       std::size_t from) {
  std::size_t pos = from;
  while ((pos = text.find(token, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_word(text[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= text.size() || !is_word(text[end]);
    if (left_ok && right_ok) return pos;
    pos += 1;
  }
  return std::string_view::npos;
}

/// Like find_token, but additionally requires the token to be followed
/// (after optional whitespace) by one of the characters in `next`.
std::size_t find_call_token(std::string_view text, std::string_view token,
                            std::string_view next, std::size_t from) {
  std::size_t pos = from;
  while ((pos = find_token(text, token, pos)) != std::string_view::npos) {
    std::size_t after = pos + token.size();
    while (after < text.size() &&
           (text[after] == ' ' || text[after] == '\t')) {
      after += 1;
    }
    if (after < text.size() &&
        next.find(text[after]) != std::string_view::npos) {
      return pos;
    }
    pos += 1;
  }
  return std::string_view::npos;
}

/// Byte range of the function body attached to the declarator that starts
/// at `from`: the first '{' at parenthesis depth 0, through its matching
/// '}'. Returns false when a ';' (pure declaration) or '}' intervenes.
bool find_body(std::string_view text, std::size_t from, std::size_t& begin,
               std::size_t& end) {
  int paren = 0;
  std::size_t i = from;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(') paren += 1;
    if (c == ')') paren -= 1;
    if (paren != 0) continue;
    if (c == ';' || c == '}') return false;
    if (c == '{') break;
  }
  if (i >= text.size()) return false;
  begin = i + 1;
  int depth = 1;
  for (i = begin; i < text.size(); ++i) {
    if (text[i] == '{') depth += 1;
    if (text[i] == '}' && --depth == 0) {
      end = i;
      return true;
    }
  }
  return false;
}

struct RuleContext {
  std::string_view path;     ///< normalized, forward slashes
  std::string_view text;     ///< stripped source
  std::string_view raw;      ///< original source
  const AllowMap& allows;
  std::vector<Finding>& out;
};

void report(const RuleContext& ctx, std::string_view rule, std::size_t pos,
            std::string message) {
  const std::size_t line = line_of(ctx.text, pos);
  if (is_allowed(ctx.allows, line, rule)) return;
  ctx.out.push_back(Finding{std::string(rule), std::string(ctx.path), line,
                            std::move(message)});
}

// ---------------------------------------------------------------------------
// hot-alloc: no direct allocation inside ADAPT_HOT function bodies.

void rule_hot_alloc(const RuleContext& ctx) {
  // Identifiers that allocate when called (or instantiated, for the
  // make_* templates). Matched as calls so a member named e.g.
  // `reserve_blocks` cannot trip the rule.
  static constexpr std::string_view kAllocCalls[] = {
      "push_back", "emplace_back", "resize",      "reserve",
      "assign",    "insert",       "emplace",     "make_unique",
      "make_shared", "to_string",  "malloc",      "calloc",
      "realloc",   "strdup",
  };
  std::size_t pos = 0;
  while ((pos = find_token(ctx.text, "ADAPT_HOT", pos)) !=
         std::string_view::npos) {
    const std::size_t mark = pos;
    pos += 1;
    // Skip the macro's own definition (and any redefinition).
    const std::size_t bol = ctx.text.rfind('\n', mark);
    const std::string_view line_prefix =
        ctx.text.substr(bol == std::string_view::npos ? 0 : bol + 1,
                        mark - (bol == std::string_view::npos ? 0 : bol + 1));
    if (line_prefix.find('#') != std::string_view::npos) continue;
    std::size_t body_begin = 0;
    std::size_t body_end = 0;
    if (!find_body(ctx.text, mark, body_begin, body_end)) continue;
    const std::string_view body =
        ctx.text.substr(body_begin, body_end - body_begin);
    for (const std::string_view call : kAllocCalls) {
      std::size_t at = 0;
      while ((at = find_call_token(body, call, "(<", at)) !=
             std::string_view::npos) {
        report(ctx, kRuleHotAlloc, body_begin + at,
               "allocation call '" + std::string(call) +
                   "' inside an ADAPT_HOT function body");
        at += 1;
      }
    }
    std::size_t at = 0;
    while ((at = find_token(body, "new", at)) != std::string_view::npos) {
      report(ctx, kRuleHotAlloc, body_begin + at,
             "'new' inside an ADAPT_HOT function body");
      at += 1;
    }
  }
}

// ---------------------------------------------------------------------------
// trace-emit-guard: emit() call sites need a sink-attached null check close
// enough that the event's argument construction stays behind it.

void rule_trace_emit_guard(const RuleContext& ctx) {
  if (path_contains(ctx.path, "src/obs/") ||
      ends_with(ctx.path, "trace_sink.h")) {
    return;  // the sink layer itself: definitions, not call sites
  }
  static constexpr std::size_t kWindow = 240;
  std::size_t pos = 0;
  while ((pos = find_call_token(ctx.text, "emit", "(", pos)) !=
         std::string_view::npos) {
    const std::size_t begin = pos > kWindow ? pos - kWindow : 0;
    const std::string_view window = ctx.text.substr(begin, pos - begin);
    if (window.find("nullptr") == std::string_view::npos) {
      report(ctx, kRuleTraceEmitGuard, pos,
             "emit() call without a preceding sink != nullptr guard");
    }
    pos += 1;
  }
}

// ---------------------------------------------------------------------------
// naked-threading: std threading primitives only inside src/common/.

void rule_naked_threading(const RuleContext& ctx) {
  if (path_contains(ctx.path, "src/common/")) return;
  static constexpr std::string_view kPrimitives[] = {
      "std::mutex",
      "std::recursive_mutex",
      "std::timed_mutex",
      "std::shared_mutex",
      "std::condition_variable",
      "std::condition_variable_any",
      "std::thread",
      "std::jthread",
      "std::lock_guard",
      "std::unique_lock",
      "std::scoped_lock",
      "std::shared_lock",
  };
  for (const std::string_view prim : kPrimitives) {
    std::size_t pos = 0;
    while ((pos = ctx.text.find(prim, pos)) != std::string_view::npos) {
      const bool left_ok = pos == 0 || (!is_word(ctx.text[pos - 1]) &&
                                        ctx.text[pos - 1] != ':');
      const std::size_t end = pos + prim.size();
      const bool right_ok = end >= ctx.text.size() || !is_word(ctx.text[end]);
      if (left_ok && right_ok) {
        report(ctx, kRuleNakedThreading, pos,
               std::string(prim) +
                   " outside src/common/ (use the adapt::Mutex / "
                   "adapt::Thread wrappers from common/sync.h)");
      }
      pos += 1;
    }
  }
}

// ---------------------------------------------------------------------------
// nondeterminism: unseeded randomness and wall-clock entropy sources are
// banned outside the seeded PRNG module.

void rule_nondeterminism(const RuleContext& ctx) {
  if (path_contains(ctx.path, "src/common/rng.")) return;
  static constexpr std::string_view kCalls[] = {"rand", "srand", "time"};
  for (const std::string_view call : kCalls) {
    std::size_t pos = 0;
    while ((pos = find_call_token(ctx.text, call, "(", pos)) !=
           std::string_view::npos) {
      std::string msg = "'";
      msg += call;
      msg +=
          "()' is nondeterministic; derive randomness from a seeded "
          "adapt::Rng";
      report(ctx, kRuleNondeterminism, pos, std::move(msg));
      pos += 1;
    }
  }
  static constexpr std::string_view kTypes[] = {"random_device", "mt19937",
                                                "mt19937_64"};
  for (const std::string_view type : kTypes) {
    std::size_t pos = 0;
    while ((pos = find_token(ctx.text, type, pos)) !=
           std::string_view::npos) {
      std::string msg = "'";
      msg += type;
      msg +=
          "' is nondeterministic; derive randomness from a seeded "
          "adapt::Rng";
      report(ctx, kRuleNondeterminism, pos, std::move(msg));
      pos += 1;
    }
  }
}

// ---------------------------------------------------------------------------
// header-hygiene: src/ headers use #pragma once and directly include
// the standard headers behind the tokens they use (IWYU-lite). Originally
// scoped to src/lss/ while the rule bedded in; now the whole tree.

void rule_header_hygiene(const RuleContext& ctx) {
  if (!path_contains(ctx.path, "src/") || !ends_with(ctx.path, ".h")) {
    return;
  }
  if (ctx.raw.find("#pragma once") == std::string_view::npos) {
    report(ctx, kRuleHeaderHygiene, 0, "header is missing #pragma once");
  }
  // token -> required standard header. Small on purpose: only tokens whose
  // home header is unambiguous.
  static constexpr std::pair<std::string_view, std::string_view> kNeeds[] = {
      {"std::vector", "vector"},
      {"std::string_view", "string_view"},
      {"std::string", "string"},
      {"std::uint8_t", "cstdint"},
      {"std::uint16_t", "cstdint"},
      {"std::uint32_t", "cstdint"},
      {"std::uint64_t", "cstdint"},
      {"std::int32_t", "cstdint"},
      {"std::int64_t", "cstdint"},
      {"std::size_t", "cstddef"},
      {"std::ptrdiff_t", "cstddef"},
      {"std::span", "span"},
      {"std::function", "functional"},
      {"std::pair", "utility"},
      {"std::numeric_limits", "limits"},
      {"std::logic_error", "stdexcept"},
      {"std::runtime_error", "stdexcept"},
      {"std::invalid_argument", "stdexcept"},
      {"std::out_of_range", "stdexcept"},
      {"std::unique_ptr", "memory"},
      {"std::make_unique", "memory"},
      {"std::shared_ptr", "memory"},
      {"std::optional", "optional"},
  };
  std::set<std::string_view> reported;
  for (const auto& [token, header] : kNeeds) {
    const std::size_t pos = find_token(ctx.text, token, 0);
    if (pos == std::string_view::npos) continue;
    if (reported.count(header) != 0) continue;
    const std::string include_line = "#include <" + std::string(header) + ">";
    if (ctx.raw.find(include_line) == std::string_view::npos) {
      reported.insert(header);
      report(ctx, kRuleHeaderHygiene, pos,
             "uses " + std::string(token) + " but does not include <" +
                 std::string(header) + ">");
    }
  }
}

}  // namespace

const std::vector<std::string_view>& all_rules() {
  static const std::vector<std::string_view> kRules = {
      kRuleHotAlloc, kRuleTraceEmitGuard, kRuleNakedThreading,
      kRuleNondeterminism, kRuleHeaderHygiene};
  return kRules;
}

std::string strip_comments_and_strings(std::string_view source) {
  std::string out(source);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;  // the quote itself stays
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          i += 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          i += 1;
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view source) {
  const std::string norm = normalized(path);
  const std::string stripped = strip_comments_and_strings(source);
  const AllowMap allows = collect_allows(source);
  std::vector<Finding> findings;
  const RuleContext ctx{norm, stripped, source, allows, findings};
  rule_hot_alloc(ctx);
  rule_trace_emit_guard(ctx);
  rule_naked_threading(ctx);
  rule_nondeterminism(ctx);
  rule_header_hygiene(ctx);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& l, const Finding& r) {
              return std::tie(l.line, l.rule, l.message) <
                     std::tie(r.line, r.rule, r.message);
            });
  return findings;
}

Result lint_tree(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    const fs::path p(root);
    if (!fs::exists(p)) {
      throw std::runtime_error("adapt_lint: no such path: " + root);
    }
    if (fs::is_regular_file(p)) {
      files.push_back(p.generic_string());
      continue;
    }
    fs::recursive_directory_iterator it(p);
    const fs::recursive_directory_iterator end;
    for (; it != end; ++it) {
      const std::string name = it->path().filename().generic_string();
      if (it->is_directory()) {
        if (name == "build" || (!name.empty() && name[0] == '.')) {
          it.disable_recursion_pending();
        }
        continue;
      }
      const std::string ext = it->path().extension().generic_string();
      if (ext == ".h" || ext == ".cpp") {
        files.push_back(it->path().generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  Result result;
  result.files_scanned = files.size();
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw std::runtime_error("adapt_lint: cannot read " + file);
    const std::string source((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    std::vector<Finding> findings = lint_source(file, source);
    result.findings.insert(result.findings.end(),
                           std::make_move_iterator(findings.begin()),
                           std::make_move_iterator(findings.end()));
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& l, const Finding& r) {
              return std::tie(l.file, l.line, l.rule, l.message) <
                     std::tie(r.file, r.line, r.rule, r.message);
            });
  return result;
}

std::string findings_json(const Result& result) {
  std::string out;
  obs::json::Writer w(out);
  w.begin_object()
      .field("schema", kLintSchema)
      .field("files_scanned", result.files_scanned)
      .begin_array("rules");
  for (const std::string_view rule : all_rules()) w.value(rule);
  w.end_array().begin_array("findings");
  for (const Finding& f : result.findings) {
    w.begin_object()
        .field("rule", f.rule)
        .field("file", f.file)
        .field("line", f.line)
        .field("message", f.message)
        .end_object();
  }
  w.end_array().end_object();
  return out;
}

void validate_lint_json(std::string_view text) {
  namespace json = obs::json;
  const json::Value doc = json::parse(text);
  json::require_schema(doc, kLintSchema);
  json::require_number(doc, "files_scanned");
  for (const json::Value& rule : json::require_array(doc, "rules").items()) {
    if (!rule.is_string()) {
      throw std::invalid_argument("schema: rules entries must be strings");
    }
  }
  std::size_t index = 0;
  for (const json::Value& f : json::require_array(doc, "findings").items()) {
    const std::string where = "findings[" + std::to_string(index++) + "]";
    for (const char* key : {"rule", "file", "message"}) {
      json::require_string(f, key, where);
    }
    json::require_number(f, "line", where);
  }
}

}  // namespace adapt::lint
