#ifndef CHARIOTS_TOOLS_FLAGS_H_
#define CHARIOTS_TOOLS_FLAGS_H_

// Minimal --flag=value / --flag value command-line parsing for the
// deployment tools. Positional arguments are collected in order.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace chariots::tools {

class Flags {
 public:
  /// `declared` is every flag the tool reads. `_` and `-` in a flag name
  /// are the same character, so `--store_dir` and `--store-dir` are one
  /// flag. A flag outside `declared` prints its name and exits 2: a typo
  /// must not run the tool on a default.
  Flags(int argc, char** argv,
        std::initializer_list<std::string_view> declared) {
    std::set<std::string> known;
    for (std::string_view name : declared) known.insert(Normalize(name));
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      size_t eq = arg.find('=');
      std::string given = arg.substr(0, eq);
      std::string name = Normalize(given);
      if (known.count(name) == 0) {
        std::fprintf(stderr, "unknown flag --%s\n", given.c_str());
        std::exit(2);
      }
      if (eq != std::string::npos) {
        values_[name] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[name] = argv[++i];
      } else {
        values_[name] = "true";  // bare boolean flag
      }
    }
  }

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = values_.find(Normalize(name));
    return it == values_.end() ? fallback : it->second;
  }

  /// Numeric flags must parse whole: `--port=70o0` or `--port=` prints the
  /// flag's name and exits 2 rather than running with a truncated value.
  int GetInt(const std::string& name, int fallback) const {
    return GetNumber<int>(name, fallback);
  }

  uint64_t GetUint64(const std::string& name, uint64_t fallback) const {
    return GetNumber<uint64_t>(name, fallback);
  }

  bool GetBool(const std::string& name) const {
    return Get(name) == "true";
  }

  bool Has(const std::string& name) const {
    return values_.count(Normalize(name)) > 0;
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Splits "a,b,c" into {"a","b","c"}.
  static std::vector<std::string> Split(const std::string& s, char sep = ',') {
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
      size_t end = s.find(sep, start);
      if (end == std::string::npos) end = s.size();
      if (end > start) out.push_back(s.substr(start, end - start));
      start = end + 1;
    }
    return out;
  }

  /// Splits "host:port" -> (host, port). Returns false on malformed input.
  static bool SplitHostPort(const std::string& s, std::string* host,
                            int* port) {
    size_t colon = s.rfind(':');
    if (colon == std::string::npos || colon + 1 >= s.size()) return false;
    *host = s.substr(0, colon);
    *port = std::atoi(s.c_str() + colon + 1);
    return *port > 0;
  }

 private:
  static std::string Normalize(std::string_view name) {
    std::string out(name);
    std::replace(out.begin(), out.end(), '_', '-');
    return out;
  }

  template <typename T>
  T GetNumber(const std::string& name, T fallback) const {
    auto it = values_.find(Normalize(name));
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    T value{};
    auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), value);
    if (ec != std::errc() || end != v.data() + v.size()) {
      std::fprintf(stderr, "invalid value for --%s: '%s'\n", name.c_str(),
                   v.c_str());
      std::exit(2);
    }
    return value;
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace chariots::tools

#endif  // CHARIOTS_TOOLS_FLAGS_H_
