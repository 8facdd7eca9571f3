#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace atlc::util {

/// Minimal declarative CLI flag parser for the bench/example binaries.
///
/// Accepted syntax: `--name=value`, `--name value`, and bare `--flag`
/// (boolean true). Unknown flags are an error so typos in sweep scripts
/// fail loudly. All bench binaries must run with zero arguments, so every
/// flag carries a default.
class Cli {
 public:
  Cli(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Register flags before calling parse(). `help` is shown by --help.
  void add_flag(std::string name, std::string help, bool default_value);
  void add_int(std::string name, std::string help, std::int64_t default_value);
  void add_double(std::string name, std::string help, double default_value);
  void add_string(std::string name, std::string help,
                  std::string default_value);

  /// Parse argv. Returns false (after printing usage) on --help or error.
  [[nodiscard]] bool parse(int argc, char** argv);

  [[nodiscard]] bool get_flag(std::string_view name) const;
  [[nodiscard]] std::int64_t get_int(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  [[nodiscard]] const std::string& get_string(std::string_view name) const;

  void print_usage() const;

 private:
  enum class Kind { Flag, Int, Double, String };
  struct Entry {
    Kind kind;
    std::string help;
    std::string value;  // canonical textual value
  };

  const Entry& find(std::string_view name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace atlc::util
