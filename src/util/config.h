// Key/value configuration in the spirit of xrootd's directive files:
//   # comment
//   cms.lifetime 8h
//   cms.delay 5s
//   oss.path /data
// Values are plain tokens; durations accept ns/us/ms/s/m/h suffixes.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "util/types.h"

namespace scalla::util {

class Config {
 public:
  /// Parses directive text. Returns std::nullopt and fills *error on
  /// malformed input: a line without a value, or a key given twice (a
  /// later line would otherwise silently replace the earlier one).
  static std::optional<Config> Parse(std::string_view text, std::string* error = nullptr);

  bool Has(std::string_view key) const;

  std::optional<std::string> GetString(std::string_view key) const;
  std::optional<std::int64_t> GetInt(std::string_view key) const;
  std::optional<double> GetDouble(std::string_view key) const;
  std::optional<bool> GetBool(std::string_view key) const;
  std::optional<Duration> GetDuration(std::string_view key) const;

  std::string GetStringOr(std::string_view key, std::string_view def) const;
  std::int64_t GetIntOr(std::string_view key, std::int64_t def) const;
  double GetDoubleOr(std::string_view key, double def) const;
  Duration GetDurationOr(std::string_view key, Duration def) const;

  const std::map<std::string, std::string, std::less<>>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string, std::less<>> entries_;
};

/// Parses "250us", "8h", "1500" (bare = nanoseconds). std::nullopt on error.
std::optional<Duration> ParseDuration(std::string_view text);

}  // namespace scalla::util
