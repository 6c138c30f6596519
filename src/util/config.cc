#include "util/config.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace scalla::util {
namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

}  // namespace

std::optional<Duration> ParseDuration(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return std::nullopt;
  std::size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.')) {
    ++i;
  }
  if (i == 0) return std::nullopt;
  double value = 0;
  const std::string num(text.substr(0, i));
  char* end = nullptr;
  value = std::strtod(num.c_str(), &end);
  if (end == num.c_str() || *end != '\0') return std::nullopt;
  const std::string_view unit = Trim(text.substr(i));
  double scale;  // to nanoseconds
  if (unit.empty() || unit == "ns") {
    scale = 1;
  } else if (unit == "us") {
    scale = 1e3;
  } else if (unit == "ms") {
    scale = 1e6;
  } else if (unit == "s") {
    scale = 1e9;
  } else if (unit == "m") {
    scale = 60e9;
  } else if (unit == "h") {
    scale = 3600e9;
  } else {
    return std::nullopt;
  }
  return Duration(static_cast<std::int64_t>(value * scale));
}

std::optional<Config> Config::Parse(std::string_view text, std::string* error) {
  Config cfg;
  std::size_t lineNo = 0;
  while (!text.empty()) {
    ++lineNo;
    const std::size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view{} : text.substr(eol + 1);
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    std::size_t sep = line.find_first_of(" \t=");
    if (sep == std::string_view::npos) {
      if (error) *error = "line " + std::to_string(lineNo) + ": missing value";
      return std::nullopt;
    }
    const std::string_view key = Trim(line.substr(0, sep));
    std::string_view value = Trim(line.substr(sep + 1));
    if (!value.empty() && value.front() == '=') value = Trim(value.substr(1));
    if (value.empty()) {
      if (error) *error = "line " + std::to_string(lineNo) + ": missing value";
      return std::nullopt;
    }
    if (!cfg.entries_.emplace(key, value).second) {
      if (error) *error = ("line " + std::to_string(lineNo) + ": ").append(key) + " given twice";
      return std::nullopt;
    }
  }
  return cfg;
}

bool Config::Has(std::string_view key) const { return entries_.find(key) != entries_.end(); }

std::optional<std::string> Config::GetString(std::string_view key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::int64_t> Config::GetInt(std::string_view key) const {
  const auto s = GetString(key);
  if (!s) return std::nullopt;
  std::int64_t value = 0;
  const auto [p, ec] = std::from_chars(s->data(), s->data() + s->size(), value);
  if (ec != std::errc{} || p != s->data() + s->size()) return std::nullopt;
  return value;
}

std::optional<double> Config::GetDouble(std::string_view key) const {
  const auto s = GetString(key);
  if (!s) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(s->c_str(), &end);
  if (end != s->c_str() + s->size()) return std::nullopt;
  return value;
}

std::optional<bool> Config::GetBool(std::string_view key) const {
  const auto s = GetString(key);
  if (!s) return std::nullopt;
  if (*s == "true" || *s == "1" || *s == "yes" || *s == "on") return true;
  if (*s == "false" || *s == "0" || *s == "no" || *s == "off") return false;
  return std::nullopt;
}

std::optional<Duration> Config::GetDuration(std::string_view key) const {
  const auto s = GetString(key);
  if (!s) return std::nullopt;
  return ParseDuration(*s);
}

std::string Config::GetStringOr(std::string_view key, std::string_view def) const {
  return GetString(key).value_or(std::string(def));
}
std::int64_t Config::GetIntOr(std::string_view key, std::int64_t def) const {
  return GetInt(key).value_or(def);
}
double Config::GetDoubleOr(std::string_view key, double def) const {
  return GetDouble(key).value_or(def);
}
Duration Config::GetDurationOr(std::string_view key, Duration def) const {
  return GetDuration(key).value_or(def);
}

}  // namespace scalla::util
