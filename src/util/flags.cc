#include "src/util/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/util/logging.h"

namespace deepplan {

namespace {

// strtoll/strtod skip leading space and stop at the first character they
// cannot use: a whole value is non-empty, starts with no space and leaves
// nothing behind.
bool Whole(const std::string& text, const char* end) {
  return !text.empty() &&
         std::isspace(static_cast<unsigned char>(text[0])) == 0 &&
         *end == '\0';
}

bool IsInt(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  std::strtoll(text.c_str(), &end, 10);
  return Whole(text, end) && errno != ERANGE;
}

}  // namespace

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (!Whole(text, end) || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

Flags& Flags::DefineInt(const std::string& name, std::int64_t default_value,
                        const std::string& help) {
  defs_[name] = {Kind::kInt, std::to_string(default_value), help};
  return *this;
}

Flags& Flags::DefineDouble(const std::string& name, double default_value,
                           const std::string& help) {
  defs_[name] = {Kind::kDouble, std::to_string(default_value), help};
  return *this;
}

Flags& Flags::DefineString(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  defs_[name] = {Kind::kString, default_value, help};
  return *this;
}

Flags& Flags::DefineBool(const std::string& name, bool default_value,
                         const std::string& help) {
  defs_[name] = {Kind::kBool, default_value ? "true" : "false", help};
  return *this;
}

bool Flags::Parse(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "?";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    std::string name = arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    auto it = defs_.find(name);
    if (it == defs_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      PrintUsage();
      return false;
    }
    if (eq == std::string::npos) {
      if (it->second.kind == Kind::kBool) {
        it->second.value = "true";
      } else {
        std::fprintf(stderr, "flag --%s requires a value (--%s=...)\n", name.c_str(),
                     name.c_str());
        return false;
      }
    } else {
      it->second.value = arg.substr(eq + 1);
    }
    const std::string& value = it->second.value;
    double number = 0.0;
    const char* expected = nullptr;  // set when the value does not parse
    switch (it->second.kind) {
      case Kind::kInt:
        expected = IsInt(value) ? nullptr : "an integer";
        break;
      case Kind::kDouble:
        expected = ParseDouble(value, &number) ? nullptr : "a finite number";
        break;
      case Kind::kBool:
        expected = value == "true" || value == "false" || value == "1" ||
                           value == "0"
                       ? nullptr
                       : "true, false, 1 or 0";
        break;
      case Kind::kString:
        break;
    }
    if (expected == nullptr && it->second.positive &&
        std::strtod(value.c_str(), nullptr) <= 0) {
      expected = "a value above zero";
    }
    if (expected != nullptr) {
      std::fprintf(stderr, "bad value for --%s: \"%s\" (expected %s)\n",
                   name.c_str(), value.c_str(), expected);
      return false;
    }
  }
  return true;
}

std::int64_t Flags::GetInt(const std::string& name) const {
  auto it = defs_.find(name);
  DP_CHECK(it != defs_.end() && it->second.kind == Kind::kInt);
  return std::strtoll(it->second.value.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name) const {
  auto it = defs_.find(name);
  DP_CHECK(it != defs_.end() && it->second.kind == Kind::kDouble);
  return std::strtod(it->second.value.c_str(), nullptr);
}

const std::string& Flags::GetString(const std::string& name) const {
  auto it = defs_.find(name);
  DP_CHECK(it != defs_.end() && it->second.kind == Kind::kString);
  return it->second.value;
}

bool Flags::GetBool(const std::string& name) const {
  auto it = defs_.find(name);
  DP_CHECK(it != defs_.end() && it->second.kind == Kind::kBool);
  return it->second.value == "true" || it->second.value == "1";
}

void Flags::PrintUsage() const {
  std::fprintf(stderr, "usage: %s [--flag=value ...]\n", program_.c_str());
  for (const auto& [name, def] : defs_) {
    std::fprintf(stderr, "  --%s (default: %s)\n      %s\n", name.c_str(),
                 def.value.c_str(), def.help.c_str());
  }
}

}  // namespace deepplan
