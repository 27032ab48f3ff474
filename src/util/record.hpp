// Line-record text: the one reader and writer behind every stored text
// format of the framework (fault plans, chaos artifacts, vulnerability
// profiles and protection plans).
//
// A record is one line: a tag, then whitespace-separated fields. The reader
// walks the text line by line, tracks the 1-based line number and the tag,
// and reads typed fields that reject malformed, out-of-range and trailing
// input. Every failure throws util::ContractViolation whose message names
// the format, the line, the field and the offending text, e.g.
//
//   fault plan line 3: max_retries '4294967296' is out of range [0, 2147483647]
//
// The writer prints integers as operator<< does and doubles as printf
// "%.17g": full precision, so a finite double reads back bit-for-bit.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "util/assert.hpp"

namespace sccft::util {

class RecordReader final {
 public:
  /// `format` names the text in error messages ("fault plan", ...). The
  /// reader keeps a view of `text`, which must outlive it.
  RecordReader(std::string_view text, std::string_view format);

  /// Advances to the next line and splits off its tag; false at the end of
  /// the text. Lines end at '\n'; a last line without one still counts.
  bool next();
  /// Reads the first line and requires it to equal `expected` exactly.
  void header(std::string_view expected);

  [[nodiscard]] std::string_view line() const { return line_; }
  /// The line's first field; empty on a blank line.
  [[nodiscard]] std::string_view tag() const { return tag_; }
  /// True while the current line has unread fields.
  [[nodiscard]] bool more() const;

  /// A signed decimal integer in [min, max].
  std::int64_t i64(const char* field,
                   std::int64_t min = std::numeric_limits<std::int64_t>::min(),
                   std::int64_t max = std::numeric_limits<std::int64_t>::max());
  /// An int-sized signed decimal integer in [min, max].
  int i32(const char* field, int min = std::numeric_limits<int>::min(),
          int max = std::numeric_limits<int>::max()) {
    return static_cast<int>(i64(field, min, max));
  }
  /// An unsigned decimal integer; a leading '-' is rejected, not wrapped.
  std::uint64_t u64(const char* field);
  /// A finite double.
  double f64(const char* field);
  /// One field, verbatim.
  std::string word(const char* field);
  /// An enum through its tag parser (e.g. ft::fault_kind_from_text); an
  /// unknown tag is reported with the line and field.
  template <class Enum>
  Enum enumeration(const char* field, Enum (*from_text)(const std::string&)) {
    const std::string text = word(field);
    try {
      return from_text(text);
    } catch (const ContractViolation&) {
      fail_field(field, text, "is not a known tag");
    }
  }
  /// The rest of the line after the fields read so far, minus the one
  /// separating space; consumes every remaining field.
  std::string rest();
  /// Requires the line to have no unread field.
  void end();
  /// Raw lines after the current one (which must have no unread field) up
  /// to the exact line `terminator`, each with its '\n'; the terminator
  /// becomes the current line.
  std::string block(std::string_view terminator);

  /// Fails naming the field read last and its text unless `ok`.
  void check(bool ok, std::string_view why) const {
    if (!ok) fail_field(last_field_, last_text_, why);
  }
  /// Fails naming the current line (or the end of the text).
  [[noreturn]] void fail(std::string_view why) const;

 private:
  std::string_view field_text(const char* field);
  /// Parses the next field with std::from_chars; `kind` names the failure.
  template <class Number>
  Number number(const char* field, const char* kind);
  [[noreturn]] void fail_field(const char* field, std::string_view text,
                               std::string_view why) const;

  std::string_view text_;
  std::string format_;
  std::size_t offset_ = 0;  ///< start of the next line in text_
  std::size_t line_number_ = 0;
  bool at_end_ = false;
  std::string_view line_;
  std::string_view tag_;
  std::size_t cursor_ = 0;  ///< next unread position in line_
  const char* last_field_ = "";
  std::string_view last_text_;
};

class RecordWriter final {
 public:
  /// Appends one record line: the tag, then " <value>" per value.
  template <class... Values>
  RecordWriter& line(std::string_view tag, const Values&... values) {
    return raw(tag).fields(values...).raw("\n");
  }
  /// Appends " <value>" per value to the line being written.
  template <class... Values>
  RecordWriter& fields(const Values&... values) {
    (put(values), ...);
    return *this;
  }
  /// Appends `body` (newline-terminated if it is not empty) and then the
  /// terminator line: the inverse of RecordReader::block.
  RecordWriter& block(std::string_view body, std::string_view terminator);
  RecordWriter& raw(std::string_view text) {
    out_ += text;
    return *this;
  }

  [[nodiscard]] std::string str() && { return std::move(out_); }

 private:
  template <std::integral Int>
  void put(Int value) {
    char digits[24];
    put(std::string_view(digits, std::to_chars(digits, digits + sizeof digits, value).ptr));
  }
  void put(bool) = delete;  // would print 1/0; callers spell flags out
  void put(double value);
  void put(std::string_view text);
  void put(const char* text) { put(std::string_view(text)); }

  std::string out_;
};

}  // namespace sccft::util
