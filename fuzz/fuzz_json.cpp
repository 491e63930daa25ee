// libFuzzer harness for the observability JSON stack.
//
// The whole input is fed to obs::json::parse, and — when it parses — the
// resulting tree is walked through every accessor so latent issues in the
// Value representation (dangling references, type confusion) surface under
// ASan. The same bytes are then offered to each artifact validator (the
// lint report's included):
// std::invalid_argument is their documented rejection path and is
// swallowed; anything else — UB, stack exhaustion on deep nesting (bounded
// by the parser's depth limit), wild exceptions — is a finding.
//
// Seed corpus: fuzz/corpus/json/ (a valid manifest, bench report, series
// header, trace, lint report, deep nesting, and assorted malformed
// fragments).
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "lint/lint.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/trace_log.h"

namespace {

void walk(const adapt::obs::json::Value& v) {
  using Type = adapt::obs::json::Value::Type;
  switch (v.type()) {
    case Type::kNull:
      break;
    case Type::kBool:
      (void)v.as_bool();
      break;
    case Type::kNumber:
      (void)v.as_number();
      break;
    case Type::kString:
      (void)v.as_string().size();
      break;
    case Type::kArray:
      for (const auto& item : v.items()) walk(item);
      break;
    case Type::kObject:
      for (const auto& [key, member] : v.members()) {
        if (v.find(key) != &member) __builtin_trap();  // find() contract
        walk(member);
      }
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);

  try {
    walk(adapt::obs::json::parse(text));
  } catch (const std::invalid_argument&) {
    // Expected for malformed input.
  }

  const auto probe = [&](auto&& validate) {
    try {
      validate(text);
    } catch (const std::invalid_argument&) {
      // Expected: schema violations reject with a reason.
    }
  };
  probe([](std::string_view t) { adapt::obs::validate_manifest_json(t); });
  probe([](std::string_view t) { adapt::obs::validate_bench_json(t); });
  probe([](std::string_view t) { (void)adapt::obs::validate_series_jsonl(t); });
  probe([](std::string_view t) { adapt::obs::validate_trace_json(t); });
  probe([](std::string_view t) { adapt::lint::validate_lint_json(t); });
  return 0;
}
