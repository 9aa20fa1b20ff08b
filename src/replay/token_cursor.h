// In-place tokenizer for the line grammars (journal and service wire).
//
// Both grammars are whitespace-separated tokens on one text line. A
// TokenCursor walks such a line without a stream and without allocating:
// tokens come back as views into the caller's buffer, integers convert
// through std::from_chars. Token boundaries are those of
// `istream >> std::string` in the C locale (space, \t \n \v \f \r), so a
// line splits into the same tokens the stream tokenizer produced.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace saath::replay {

class TokenCursor {
 public:
  explicit TokenCursor(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// The next token; empty once the line is exhausted.
  [[nodiscard]] std::string_view next() {
    while (p_ != end_ && is_space(*p_)) ++p_;
    const char* start = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  /// Everything after the last token taken, leading whitespace included
  /// (the free-text tail of a header or HELLO line).
  [[nodiscard]] std::string_view rest() const {
    return {p_, static_cast<std::size_t>(end_ - p_)};
  }

  [[nodiscard]] static bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

 private:
  const char* p_;
  const char* end_;
};

/// A whole token as a base-10 int64: an optional '+' or '-', then digits,
/// nothing after. nullopt otherwise, and for values outside int64.
[[nodiscard]] inline std::optional<std::int64_t> to_int(std::string_view tok) {
  const char* first = tok.data();
  const char* const last = first + tok.size();
  if (first != last && *first == '+') {
    ++first;
    if (first != last && *first == '-') return std::nullopt;
  }
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last || first == last) return std::nullopt;
  return v;
}

}  // namespace saath::replay
