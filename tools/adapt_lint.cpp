// adapt_lint CLI: scans source roots for project-invariant violations and
// reports them as text plus (optionally) an adapt-lint-v1 JSON document.
//
// Usage: adapt_lint [--json <path>] <root>...
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error. The JSON report
// is written in both the clean and the findings case, so CI can archive it
// unconditionally and gate on the exit code.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "lint/lint.h"
#include "obs/export.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--json <path>] <root>...\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) return usage(argv[0]);
      json_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) return usage(argv[0]);

  try {
    const adapt::lint::Result result = adapt::lint::lint_tree(roots);
    for (const adapt::lint::Finding& f : result.findings) {
      std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                   f.rule.c_str(), f.message.c_str());
    }
    if (!json_path.empty()) {
      const std::string json = adapt::lint::findings_json(result);
      adapt::lint::validate_lint_json(json);  // self-check before writing
      adapt::obs::write_artifact(json_path, json + '\n');
    }
    std::fprintf(stderr, "adapt_lint: %zu files scanned, %zu finding%s\n",
                 result.files_scanned, result.findings.size(),
                 result.findings.size() == 1 ? "" : "s");
    return result.findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adapt_lint: %s\n", e.what());
    return 2;
  }
}
