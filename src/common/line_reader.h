#pragma once

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/enum_names.h"
#include "common/status.h"

namespace pr {

/// Strict token parsers shared by every line dialect and command-line flag.
/// The whole token must be the value: no trailing junk, no surrounding
/// blanks. Integers must fit the target type (one leading '+' is allowed, a
/// '-' only for signed types); a bool is exactly 0 or 1; floating-point
/// tokens take anything strtod/strtof consume in full, nan and inf included.
/// On failure `*out` is left untouched.
bool ParseToken(std::string_view token, double* out);
bool ParseToken(std::string_view token, float* out);
bool ParseToken(std::string_view token, bool* out);

template <typename T>
  requires std::is_integral_v<T>
bool ParseToken(std::string_view token, T* out) {
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') {
    token.remove_prefix(1);
  }
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, *out);
  return error == std::errc() && stop == end;
}

/// Double token writers: FormatExact prints %.17g, FormatShortest the
/// shortest decimal; both read back as the same double.
std::string FormatExact(double value);
std::string FormatShortest(double value);

/// Reads the whole file at `path`; NotFound when it cannot be opened.
Status ReadTextFile(const std::string& path, std::string* out);
/// Writes `text` to `path` atomically: a temp file renamed into place.
Status WriteFileAtomically(const std::string& path, const std::string& text);

/// \brief The one reader behind the `key value...` line dialects: prconfig,
/// prtrace, prtopo and prreport.
///
/// A text is a `<magic> <version>` header line, then one record per line.
/// Blank lines and lines whose first non-blank character is '#' are
/// skipped, and a trailing CR is stripped. A record is a key followed by
/// blank-separated tokens, which the dialect's parser takes in order.
/// Strictness lives here, once: a record that leaves a token unread fails
/// as soon as the reader moves past it, and every error names its line.
///
///   LineReader lines(text, "prtopo", 1);
///   while (lines.Next()) {
///     if (lines.key() == "inter_cost") PR_RETURN_NOT_OK(lines.Take(&cost));
///     ...
///   }
///   PR_RETURN_NOT_OK(lines.status());
class LineReader {
 public:
  /// `text` must outlive the reader.
  LineReader(std::string_view text, std::string_view magic, int version);

  /// Moves to the next record, checking the header on the first call. False
  /// at the end of the text or on an error; status() tells which.
  bool Next();
  /// Once Next() returned false: OK when the whole text was well formed.
  const Status& status() const { return status_; }

  std::string_view key() const { return key_; }
  /// True when the current record has no token left.
  bool AtEnd() const;

  /// Takes the next token as a number or bool (see ParseToken), or
  /// verbatim into a string.
  template <typename T>
  Status Take(T* out) {
    std::string_view token;
    if (!NextToken(&token)) return Missing();
    if constexpr (std::is_same_v<T, std::string>) {
      *out = token;
      return Status::OK();
    } else {
      return ParseToken(token, out) ? Status::OK() : Bad();
    }
  }
  /// Takes the next token as one of `names`.
  template <typename E, size_t N>
  Status Take(E* out, const EnumName<E> (&names)[N]) {
    std::string_view token;
    if (!NextToken(&token)) return Missing();
    return ParseEnum(names, token, out) ? Status::OK() : Bad();
  }
  /// Takes every token left on the record (possibly none).
  template <typename T>
  Status TakeAll(std::vector<T>* out) {
    while (!AtEnd()) {
      T value{};
      PR_RETURN_NOT_OK(Take(&value));
      out->push_back(value);
    }
    return Status::OK();
  }
  /// Takes the rest of the record, leading blanks stripped, for values that
  /// may contain spaces (paths). An empty rest is a missing value.
  Status TakeRest(std::string* out);

  /// Errors that name the current line: a free-form one, a record that ends
  /// before its next value, and a last-taken token that is not a value.
  Status Error(std::string_view what) const;
  Status Missing() const;
  Status Bad() const;

 private:
  bool NextToken(std::string_view* token);

  std::string_view text_;  ///< not yet split into lines
  std::string magic_;
  int version_;
  int line_no_ = 0;
  bool saw_header_ = false;
  bool in_record_ = false;
  std::string_view key_;
  std::string_view rest_;  ///< unread part of the current record
  std::string_view last_;  ///< the token taken last
  Status status_;
};

}  // namespace pr
