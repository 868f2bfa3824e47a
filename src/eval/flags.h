#ifndef DCMT_EVAL_FLAGS_H_
#define DCMT_EVAL_FLAGS_H_

// Tiny argv flag parser shared by the paper-reproduction harnesses and the
// command-line tools.
// Supports --name=value and --name value forms; unknown flags abort with the
// accepted list so harnesses stay self-documenting, and a numeric flag whose
// value does not parse exits with the flag's name and value.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace dcmt {
namespace eval {

class Flags {
 public:
  /// `spec` maps flag name -> default value (as string). Flags not in the
  /// spec are rejected.
  Flags(int argc, char** argv, std::map<std::string, std::string> spec)
      : values_(std::move(spec)) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) Die(arg);
      arg = arg.substr(2);
      std::string value;
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
      } else if (i + 1 < argc) {
        value = argv[++i];
      }
      if (values_.find(arg) == values_.end()) Die("--" + arg);
      values_[arg] = value;
    }
  }

  std::string Get(const std::string& name) const { return values_.at(name); }
  int GetInt(const std::string& name) const { return Parse<int>(name); }
  double GetDouble(const std::string& name) const {
    return Parse<double>(name);
  }
  std::vector<std::string> GetList(const std::string& name) const {
    std::vector<std::string> out;
    std::stringstream ss(values_.at(name));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) out.push_back(item);
    }
    return out;
  }

 private:
  /// The whole value must parse as a T in range; anything else (empty,
  /// non-numeric, trailing junk, overflow) exits with status 2.
  template <typename T>
  T Parse(const std::string& name) const {
    const std::string& text = values_.at(name);
    const char* end = text.data() + text.size();
    T value{};
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end) {
      std::fprintf(stderr, "invalid value for --%s: '%s'\n", name.c_str(),
                   text.c_str());
      std::exit(2);
    }
    return value;
  }

  [[noreturn]] void Die(const std::string& arg) const {
    std::fprintf(stderr, "unknown flag %s; accepted flags:\n", arg.c_str());
    for (const auto& [k, v] : values_) {
      std::fprintf(stderr, "  --%s (default: %s)\n", k.c_str(), v.c_str());
    }
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
};

}  // namespace eval
}  // namespace dcmt

#endif  // DCMT_EVAL_FLAGS_H_
