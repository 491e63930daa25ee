#include "trace/reader.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace adapt::trace {
namespace {

/// Splits into a thread-local scratch vector: parse_line runs once per
/// trace record, and a fresh std::vector here was the reader's only
/// steady-state allocation. The reference stays valid until the caller's
/// next split_csv call on the same thread.
std::vector<std::string_view>& split_csv(std::string_view line) {
  thread_local std::vector<std::string_view> fields;
  fields.clear();
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return fields;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

[[noreturn]] void bad_field(const char* what, std::string_view value,
                            const char* why = "malformed") {
  throw ParseError(0, std::string(why) + " " + what + " field: '" +
                          std::string(value) + "'");
}

std::uint64_t parse_u64(std::string_view s, const char* what) {
  s = trim(s);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec == std::errc::result_out_of_range) bad_field(what, s, "overflowing");
  if (ec != std::errc{} || ptr != s.data() + s.size()) bad_field(what, s);
  return value;
}

std::uint32_t parse_u32(std::string_view s, const char* what) {
  const std::uint64_t value = parse_u64(s, what);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    bad_field(what, trim(s), "overflowing");
  }
  return static_cast<std::uint32_t>(value);
}

double parse_f64(std::string_view s, const char* what) {
  s = trim(s);
  // std::from_chars<double> is not universally available; use strtod on a
  // bounded copy. Embedded NULs make end stop early and fail the check.
  std::string buf(s);
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty()) bad_field(what, s);
  if (!std::isfinite(value)) bad_field(what, s, "non-finite");
  return value;
}

OpType parse_op_letter(std::string_view s) {
  s = trim(s);
  if (s == "R" || s == "r" || s == "Read" || s == "read") {
    return OpType::kRead;
  }
  if (s == "W" || s == "w" || s == "Write" || s == "write") {
    return OpType::kWrite;
  }
  bad_field("op", s);
}

void require_fields(const std::vector<std::string_view>& f, std::size_t n,
                    const char* format) {
  if (f.size() < n) {
    throw ParseError(0, std::string("too few fields for ") + format +
                            " (got " + std::to_string(f.size()) + ", want " +
                            std::to_string(n) + ")");
  }
}

std::uint64_t checked_add(std::uint64_t a, std::uint64_t b,
                          const char* what) {
  if (a > std::numeric_limits<std::uint64_t>::max() - b) {
    bad_field(what, std::to_string(a) + " + " + std::to_string(b),
              "overflowing");
  }
  return a + b;
}

std::uint64_t sectors_to_bytes(std::uint64_t sectors, const char* what) {
  if (sectors > std::numeric_limits<std::uint64_t>::max() / 512) {
    bad_field(what, std::to_string(sectors), "overflowing");
  }
  return sectors * 512;
}

std::uint32_t bytes_to_blocks(std::uint64_t bytes, std::uint32_t block_size,
                              const char* what) {
  // Round the request up to whole blocks; a zero-length request still
  // touches the block at its offset.
  const std::uint64_t rounded = checked_add(bytes, block_size - 1, what);
  const std::uint64_t blocks = std::max<std::uint64_t>(rounded / block_size, 1);
  if (blocks > std::numeric_limits<std::uint32_t>::max()) {
    bad_field(what, std::to_string(bytes), "overflowing");
  }
  return static_cast<std::uint32_t>(blocks);
}

TimeUs seconds_to_us(double seconds, const char* what) {
  // Reject negatives and values whose microsecond count does not fit u64
  // (the cast would otherwise be UB).
  if (seconds < 0.0 || seconds >= 1.8e13) {
    bad_field(what, std::to_string(seconds), "out-of-range");
  }
  return static_cast<TimeUs>(seconds * 1e6);
}

}  // namespace

TraceFormat format_named(std::string_view name) {
  if (name == "canonical") return TraceFormat::kCanonical;
  if (name == "alibaba") return TraceFormat::kAlibaba;
  if (name == "tencent") return TraceFormat::kTencent;
  if (name == "msrc") return TraceFormat::kMsrc;
  throw std::invalid_argument("unknown trace format: " + std::string(name));
}

std::optional<Record> parse_line(std::string_view line, TraceFormat format,
                                 std::uint32_t block_size) {
  line = trim(line);
  if (line.empty() || line.front() == '#') return std::nullopt;
  const auto& f = split_csv(line);
  Record r;
  switch (format) {
    case TraceFormat::kCanonical: {
      require_fields(f, 4, "canonical");
      r.ts_us = parse_u64(f[0], "ts_us");
      r.op = parse_op_letter(f[1]);
      r.lba = parse_u64(f[2], "lba");
      r.blocks = parse_u32(f[3], "blocks");
      break;
    }
    case TraceFormat::kAlibaba: {
      require_fields(f, 5, "alibaba");
      r.op = parse_op_letter(f[1]);
      const std::uint64_t offset = parse_u64(f[2], "offset");
      const std::uint64_t length = parse_u64(f[3], "length");
      r.ts_us = parse_u64(f[4], "ts");
      r.lba = offset / block_size;
      r.blocks = bytes_to_blocks(
          checked_add(length, offset % block_size, "length"), block_size,
          "length");
      break;
    }
    case TraceFormat::kTencent: {
      require_fields(f, 5, "tencent");
      const double ts_sec = parse_f64(f[0], "ts_sec");
      const std::uint64_t offset_sectors = parse_u64(f[1], "offset");
      const std::uint64_t size_sectors = parse_u64(f[2], "size");
      const std::uint64_t io_type = parse_u64(f[3], "io_type");
      r.ts_us = seconds_to_us(ts_sec, "ts_sec");
      r.op = io_type == 0 ? OpType::kRead : OpType::kWrite;
      const std::uint64_t offset_bytes =
          sectors_to_bytes(offset_sectors, "offset");
      const std::uint64_t size_bytes = sectors_to_bytes(size_sectors, "size");
      r.lba = offset_bytes / block_size;
      r.blocks = bytes_to_blocks(
          checked_add(size_bytes, offset_bytes % block_size, "size"),
          block_size, "size");
      break;
    }
    case TraceFormat::kMsrc: {
      require_fields(f, 6, "msrc");
      const std::uint64_t ts_100ns = parse_u64(f[0], "ts");
      r.ts_us = ts_100ns / 10;
      r.op = parse_op_letter(f[3]);
      const std::uint64_t offset = parse_u64(f[4], "offset");
      const std::uint64_t size = parse_u64(f[5], "size");
      r.lba = offset / block_size;
      r.blocks = bytes_to_blocks(checked_add(size, offset % block_size, "size"),
                                 block_size, "size");
      break;
    }
  }
  if (r.blocks == 0) r.blocks = 1;
  // The record must address a representable block range.
  if (r.lba > std::numeric_limits<std::uint64_t>::max() - r.blocks) {
    bad_field("lba", std::to_string(r.lba), "overflowing");
  }
  return r;
}

Volume read_trace(std::istream& in, TraceFormat format,
                  std::uint32_t block_size, std::uint64_t capacity_blocks) {
  Volume volume;
  std::string line;
  std::uint64_t line_no = 0;
  std::uint64_t max_block = 0;
  bool have_base = false;
  TimeUs base_ts = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::optional<Record> rec;
    try {
      rec = parse_line(line, format, block_size);
    } catch (const ParseError& e) {
      throw e.at_line(line_no);
    }
    if (!rec) continue;
    Record r = *rec;
    if (!have_base) {
      base_ts = r.ts_us;
      have_base = true;
    }
    r.ts_us = r.ts_us >= base_ts ? r.ts_us - base_ts : 0;
    max_block = std::max(max_block, r.lba + r.blocks);
    volume.records.push_back(r);
  }
  volume.capacity_blocks =
      capacity_blocks != 0 ? capacity_blocks : max_block;
  return volume;
}

void write_canonical(std::ostream& out, const Volume& volume) {
  for (const Record& r : volume.records) {
    out << r.ts_us << ',' << (r.op == OpType::kRead ? 'R' : 'W') << ','
        << r.lba << ',' << r.blocks << '\n';
  }
}

}  // namespace adapt::trace
