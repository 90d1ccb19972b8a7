// Tiny --key=value command-line parser for examples and benches. Unknown flags,
// values that do not parse whole as the flag's type, and values at or below
// zero for a flag declared positive are errors so typos fail loudly.
#ifndef SRC_UTIL_FLAGS_H_
#define SRC_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace deepplan {

// Parses all of `text` as one finite number (no trailing characters, no
// inf/nan); false otherwise. Shared by Flags and the tools' own parsers.
bool ParseDouble(const std::string& text, double* out);

class Flags {
 public:
  // Parses argv; on --help or error, prints usage (or names the bad flag and
  // value) and returns false. Int flags take a whole integer, double flags a
  // finite number, bool flags true, false, 1 or 0.
  bool Parse(int argc, char** argv);

  // Registration (call before Parse). Returns *this for chaining.
  Flags& DefineInt(const std::string& name, std::int64_t default_value,
                   const std::string& help);
  Flags& DefineDouble(const std::string& name, double default_value,
                      const std::string& help);
  // A count, rate, duration, SLO or batch: Parse refuses a value <= 0.
  Flags& DefinePositiveInt(const std::string& name, std::int64_t default_value,
                           const std::string& help) {
    DefineInt(name, default_value, help);
    defs_[name].positive = true;
    return *this;
  }
  Flags& DefinePositiveDouble(const std::string& name, double default_value,
                              const std::string& help) {
    DefineDouble(name, default_value, help);
    defs_[name].positive = true;
    return *this;
  }
  Flags& DefineString(const std::string& name, const std::string& default_value,
                      const std::string& help);
  Flags& DefineBool(const std::string& name, bool default_value, const std::string& help);

  std::int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  // Positional (non-flag) arguments.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  enum class Kind { kInt, kDouble, kString, kBool };
  struct Def {
    Kind kind;
    std::string value;
    std::string help;
    bool positive = false;
  };
  std::map<std::string, Def> defs_;
  std::vector<std::string> positional_;
  std::string program_;

  void PrintUsage() const;
};

}  // namespace deepplan

#endif  // SRC_UTIL_FLAGS_H_
