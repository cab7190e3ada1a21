#include "common/line_reader.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace pr {
namespace {

constexpr std::string_view kBlanks = " \t\v\f\r";

template <typename T>
bool ParseFloating(std::string_view token, T (*convert)(const char*, char**),
                   T* out) {
  const std::string copy(token);  // strtod needs a terminated string
  char* end = nullptr;
  const T value = convert(copy.c_str(), &end);
  if (copy.empty() || end != copy.c_str() + copy.size()) return false;
  *out = value;
  return true;
}

}  // namespace

bool ParseToken(std::string_view token, double* out) {
  return ParseFloating(token, std::strtod, out);
}

bool ParseToken(std::string_view token, float* out) {
  return ParseFloating(token, std::strtof, out);
}

bool ParseToken(std::string_view token, bool* out) {
  int value = 0;
  if (!ParseToken(token, &value) || (value != 0 && value != 1)) return false;
  *out = value == 1;
  return true;
}

std::string FormatExact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string FormatShortest(double value) {
  for (int precision = 1; precision <= 17; ++precision) {
    std::ostringstream out;
    out.precision(precision);
    out << value;
    double parsed = 0.0;
    std::istringstream in(out.str());
    in >> parsed;
    if (parsed == value) return out.str();
  }
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

Status ReadTextFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return Status::OK();
}

Status WriteFileAtomically(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::Internal("cannot open " + tmp + " for writing");
    out << text;
    out.flush();
    if (!out) return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename " + tmp + " -> " + path + " failed");
  }
  return Status::OK();
}

LineReader::LineReader(std::string_view text, std::string_view magic,
                       int version)
    : text_(text), magic_(magic), version_(version) {}

bool LineReader::Next() {
  if (!status_.ok()) return false;
  if (in_record_ && !AtEnd()) {
    std::string_view token;
    NextToken(&token);
    status_ = Error("key '" + std::string(key_) + "' has trailing token '" +
                    std::string(token) + "'");
    return false;
  }
  in_record_ = false;
  while (!text_.empty()) {
    const size_t newline = text_.find('\n');
    std::string_view line = text_.substr(0, newline);
    text_.remove_prefix(newline == std::string_view::npos ? text_.size()
                                                          : newline + 1);
    ++line_no_;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    rest_ = line;
    std::string_view first;
    if (!NextToken(&first) || first.front() == '#') continue;
    key_ = first;
    in_record_ = true;
    if (saw_header_) return true;
    int version = 0;
    if (key_ != magic_ || !Take(&version).ok() || version != version_ ||
        !AtEnd()) {
      status_ = Status::InvalidArgument(
          magic_ + ": expected '" + magic_ + " " + std::to_string(version_) +
          "' header, got: " + std::string(line));
      return false;
    }
    saw_header_ = true;
    in_record_ = false;
  }
  if (!saw_header_) {
    status_ = Status::InvalidArgument(magic_ + ": missing '" + magic_ + " " +
                                      std::to_string(version_) + "' header");
  }
  return false;
}

bool LineReader::AtEnd() const {
  return rest_.find_first_not_of(kBlanks) == std::string_view::npos;
}

Status LineReader::TakeRest(std::string* out) {
  const size_t start = rest_.find_first_not_of(kBlanks);
  if (start == std::string_view::npos) return Missing();
  *out = rest_.substr(start);
  rest_ = {};
  return Status::OK();
}

Status LineReader::Error(std::string_view what) const {
  return Status::InvalidArgument(magic_ + " line " + std::to_string(line_no_) +
                                 ": " + std::string(what));
}

Status LineReader::Missing() const {
  return Error("key '" + std::string(key_) + "' is missing a value");
}

Status LineReader::Bad() const {
  return Error("key '" + std::string(key_) + "' has bad value '" +
               std::string(last_) + "'");
}

bool LineReader::NextToken(std::string_view* token) {
  const size_t start = rest_.find_first_not_of(kBlanks);
  if (start == std::string_view::npos) {
    rest_ = {};
    return false;
  }
  rest_.remove_prefix(start);
  const size_t stop = std::min(rest_.find_first_of(kBlanks), rest_.size());
  *token = rest_.substr(0, stop);
  rest_.remove_prefix(stop);
  last_ = *token;
  return true;
}

}  // namespace pr
