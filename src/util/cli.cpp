#include "atlc/util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace atlc::util {

void Cli::add_flag(std::string name, std::string help, bool default_value) {
  entries_[std::move(name)] =
      Entry{Kind::Flag, std::move(help), default_value ? "1" : "0"};
}

void Cli::add_int(std::string name, std::string help,
                  std::int64_t default_value) {
  entries_[std::move(name)] =
      Entry{Kind::Int, std::move(help), std::to_string(default_value)};
}

void Cli::add_double(std::string name, std::string help, double default_value) {
  entries_[std::move(name)] =
      Entry{Kind::Double, std::move(help), std::to_string(default_value)};
}

void Cli::add_string(std::string name, std::string help,
                     std::string default_value) {
  entries_[std::move(name)] =
      Entry{Kind::String, std::move(help), std::move(default_value)};
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return false;
    }
    if (!arg.starts_with("--")) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", program_.c_str(),
                   argv[i]);
      print_usage();
      return false;
    }
    arg.remove_prefix(2);
    // The name is looked up before anything else: an unregistered flag is
    // reported as unknown wherever it stands, with or without a value.
    const std::size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", program_.c_str(),
                   name.c_str());
      print_usage();
      return false;
    }
    std::string value;
    if (eq != std::string_view::npos) {
      value = std::string(arg.substr(eq + 1));
    } else if (it->second.kind == Kind::Flag) {
      // push_back, not `= "1"`: GCC 12 at -O3 misreports the inlined
      // literal assign as an overlapping memcpy (-Werror=restrict).
      value.push_back('1');
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "%s: flag --%s expects a value\n",
                   program_.c_str(), name.c_str());
      return false;
    }
    it->second.value = std::move(value);
  }
  return true;
}

const Cli::Entry& Cli::find(std::string_view name, Kind kind) const {
  auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::logic_error("Cli: flag not registered: " + std::string(name));
  if (it->second.kind != kind)
    throw std::logic_error("Cli: wrong type for flag: " + std::string(name));
  return it->second;
}

bool Cli::get_flag(std::string_view name) const {
  const auto& v = find(name, Kind::Flag).value;
  return v == "1" || v == "true" || v == "yes";
}

std::int64_t Cli::get_int(std::string_view name) const {
  return std::strtoll(find(name, Kind::Int).value.c_str(), nullptr, 10);
}

double Cli::get_double(std::string_view name) const {
  return std::strtod(find(name, Kind::Double).value.c_str(), nullptr);
}

const std::string& Cli::get_string(std::string_view name) const {
  return find(name, Kind::String).value;
}

void Cli::print_usage() const {
  std::fprintf(stderr, "%s — %s\n\nflags:\n", program_.c_str(),
               description_.c_str());
  for (const auto& [name, e] : entries_) {
    const char* kind = e.kind == Kind::Flag     ? "flag"
                       : e.kind == Kind::Int    ? "int"
                       : e.kind == Kind::Double ? "float"
                                                : "string";
    std::fprintf(stderr, "  --%-24s %-6s (default: %s)\n      %s\n",
                 name.c_str(), kind, e.value.c_str(), e.help.c_str());
  }
}

}  // namespace atlc::util
