#pragma once
// Key-value configuration store — the C++ analogue of the prototype's
// conf.py. Every daemon (Interface Daemon, DRL Engine, Monitoring/Control
// Agents) reads its settings from one Config; keys use dotted names such as
// drl.minibatch_size or lustre.default_cwnd (core/config_io.cpp lists them).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace capes::util {

/// Typed configuration map with file parsing (`key = value`, `#` comments).
class Config {
 public:
  Config() = default;

  /// Parse `key = value` lines. Blank lines and lines starting with '#'
  /// (after whitespace) are ignored. Later keys override earlier ones.
  /// Returns false (and leaves *this partially updated) on a malformed line.
  bool parse_string(const std::string& text);

  /// Parse a config file from disk. Returns false if the file cannot be
  /// read or contains a malformed line.
  bool parse_file(const std::string& path);

  void set(const std::string& key, const std::string& value);
  void set_int(const std::string& key, std::int64_t value);
  void set_double(const std::string& key, double value);
  void set_bool(const std::string& key, bool value);

  /// The raw value, or nullopt when the key is absent. Typed values go
  /// through the strict util::parse_* parsers (core/config_io.cpp).
  std::optional<std::string> get(const std::string& key) const;

  /// Keys in sorted order (for dumping / diffing configs).
  std::vector<std::string> keys() const;

  /// Serialize back to `key = value` lines, sorted by key.
  std::string dump() const;

  std::size_t size() const { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace capes::util
