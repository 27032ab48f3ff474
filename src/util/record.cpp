#include "util/record.hpp"

#include <algorithm>
#include <cmath>
#include <system_error>

namespace sccft::util {
namespace {

/// The separators operator>> skips; '\n' never occurs inside a line.
constexpr std::string_view kBlanks = " \t\r\v\f";

}  // namespace

RecordReader::RecordReader(std::string_view text, std::string_view format)
    : text_(text), format_(format) {}

bool RecordReader::next() {
  if (offset_ >= text_.size()) {
    at_end_ = true;
    line_ = tag_ = {};
    return false;
  }
  const std::size_t newline = text_.find('\n', offset_);
  const std::size_t stop = newline == std::string_view::npos ? text_.size() : newline;
  line_ = text_.substr(offset_, stop - offset_);
  offset_ = stop + 1;
  ++line_number_;
  cursor_ = 0;
  tag_ = more() ? field_text("tag") : std::string_view{};
  return true;
}

void RecordReader::header(std::string_view expected) {
  if (!next() || line_ != expected) {
    fail("expected the header '" + std::string(expected) + "'");
  }
}

bool RecordReader::more() const {
  return line_.find_first_not_of(kBlanks, cursor_) != std::string_view::npos;
}

std::string_view RecordReader::field_text(const char* field) {
  const std::size_t start = line_.find_first_not_of(kBlanks, cursor_);
  if (start == std::string_view::npos) fail(std::string(field) + " is missing");
  cursor_ = std::min(line_.find_first_of(kBlanks, start), line_.size());
  last_field_ = field;
  last_text_ = line_.substr(start, cursor_ - start);
  return last_text_;
}

template <class Number>
Number RecordReader::number(const char* field, const char* kind) {
  const std::string_view text = field_text(field);
  Number value{};
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  check(ec != std::errc::result_out_of_range, "does not fit its type");
  check(ec == std::errc{} && ptr == text.data() + text.size(), kind);
  return value;
}

std::int64_t RecordReader::i64(const char* field, std::int64_t min,
                               std::int64_t max) {
  const std::int64_t value = number<std::int64_t>(field, "is not an integer");
  if (value < min || value > max) {
    check(false, "is out of range [" + std::to_string(min) + ", " +
                     std::to_string(max) + "]");
  }
  return value;
}

std::uint64_t RecordReader::u64(const char* field) {
  return number<std::uint64_t>(field, "is not an unsigned integer");
}

double RecordReader::f64(const char* field) {
  const double value = number<double>(field, "is not a number");
  check(std::isfinite(value), "is not finite");
  return value;
}

std::string RecordReader::word(const char* field) {
  return std::string(field_text(field));
}

std::string RecordReader::rest() {
  std::string_view tail = line_.substr(cursor_);
  cursor_ = line_.size();
  if (!tail.empty() && tail.front() == ' ') tail.remove_prefix(1);
  return std::string(tail);
}

void RecordReader::end() {
  if (!more()) return;
  const std::string_view extra = field_text("trailing field");
  fail("'" + std::string(tag_) + "' has an unexpected trailing field '" +
       std::string(extra) + "'");
}

std::string RecordReader::block(std::string_view terminator) {
  end();
  const std::size_t opened_at = line_number_;
  std::string body;
  while (next()) {
    if (line_ == terminator) return body;
    body += line_;
    body += '\n';
  }
  fail("the section opened at line " + std::to_string(opened_at) + " has no '" +
       std::string(terminator) + "' line");
}

void RecordReader::fail(std::string_view why) const {
  std::string detail = format_;
  detail += at_end_ ? " at end of text: " : " line " + std::to_string(line_number_) + ": ";
  detail += why;
  contract_failure_msg("precondition", detail, __FILE__, __LINE__);
}

void RecordReader::fail_field(const char* field, std::string_view text,
                              std::string_view why) const {
  fail(std::string(field) + " '" + std::string(text) + "' " + std::string(why));
}

void RecordWriter::put(double value) {
  // Fixed precision 17, printf "%.17g": the bytes every stored text has
  // always carried. Shortest round-trip output would rewrite them.
  char digits[32];
  put(std::string_view(digits, std::to_chars(digits, digits + sizeof digits, value,
                                              std::chars_format::general, 17)
                                   .ptr));
}

void RecordWriter::put(std::string_view text) {
  out_ += ' ';
  out_ += text;
}

RecordWriter& RecordWriter::block(std::string_view body, std::string_view terminator) {
  out_ += body;
  if (!body.empty() && body.back() != '\n') out_ += '\n';
  out_ += terminator;
  out_ += '\n';
  return *this;
}

}  // namespace sccft::util
