// CSV block-trace readers for the three production formats the paper
// evaluates (Alibaba cloud block storage, Tencent CBS, MSR Cambridge), plus
// a canonical format for traces produced by this repo's generators.
//
// Formats (one record per line):
//   Canonical : ts_us,op(R|W),lba_block,blocks
//   Alibaba   : device_id,opcode(R|W),offset_bytes,length_bytes,ts_us
//   Tencent   : ts_sec,offset_sectors,size_sectors,io_type(0=R,1=W),volume_id
//   MSRC      : ts_100ns,hostname,disk,type(Read|Write),offset_bytes,
//               size_bytes,response_us
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "trace/record.h"

namespace adapt::trace {

enum class TraceFormat { kCanonical, kAlibaba, kTencent, kMsrc };

/// The format called `name` (canonical|alibaba|tencent|msrc); throws
/// std::invalid_argument for any other name.
TraceFormat format_named(std::string_view name);

/// Structured parse failure: which line (1-based; 0 when unknown, e.g. from
/// parse_line on a free-standing string) and why. Malformed or overflowing
/// fields always raise this — a trace reader that silently skips or
/// truncates corrupt records produces plausible-but-wrong workloads.
class ParseError : public std::invalid_argument {
 public:
  ParseError(std::uint64_t line_no, const std::string& reason)
      : std::invalid_argument("trace line " + std::to_string(line_no) + ": " +
                              reason),
        line_no_(line_no),
        reason_(reason) {}

  std::uint64_t line_no() const noexcept { return line_no_; }
  const std::string& reason() const noexcept { return reason_; }

  /// Copy of this error re-attributed to `line_no` (used by read_trace to
  /// annotate errors thrown while parsing an isolated line).
  ParseError at_line(std::uint64_t line_no) const {
    return {line_no, reason_};
  }

 private:
  std::uint64_t line_no_;
  std::string reason_;
};

/// Parses one CSV line in the given format. Returns nullopt for blank lines
/// and comment lines (leading '#'); throws ParseError (with line 0) on
/// malformed or overflowing input. `block_size` converts byte/sector
/// offsets to blocks.
std::optional<Record> parse_line(std::string_view line, TraceFormat format,
                                 std::uint32_t block_size = kDefaultBlockSize);

/// Reads a whole stream into a Volume. Records keep file order; capacity is
/// sized to the maximum addressed block + 1 unless `capacity_blocks` is
/// given. Timestamps are rebased so the first record is at t = 0. Throws
/// ParseError carrying the 1-based line number of the offending record.
Volume read_trace(std::istream& in, TraceFormat format,
                  std::uint32_t block_size = kDefaultBlockSize,
                  std::uint64_t capacity_blocks = 0);

/// Writes a volume in canonical format (inverse of kCanonical parsing).
void write_canonical(std::ostream& out, const Volume& volume);

}  // namespace adapt::trace
