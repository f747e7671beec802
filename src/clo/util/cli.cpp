#include "clo/util/cli.hpp"

#include <stdexcept>

#include "clo/util/numeric.hpp"

namespace clo {

CliArgs::CliArgs(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--key value" when the next token is not itself a flag; else boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[i + 1];
      ++i;
    } else {
      values_[arg] = "";
    }
  }
}

bool CliArgs::has(const std::string& flag) const {
  return values_.count(flag) > 0;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int CliArgs::get_int(const std::string& key, int fallback) const {
  // Locale-independent (atoi/atof honor the global C locale — see
  // util/numeric.hpp) and whole-token: "12x" is an error, not 12.
  auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return fallback;
  int value = 0;
  if (!util::parse_int(it->second, &value)) {
    throw std::invalid_argument("--" + key + " needs an integer value, got '" +
                                it->second + "'");
  }
  return value;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return fallback;
  double value = 0.0;
  if (!util::parse_double(it->second, &value)) {
    throw std::invalid_argument("--" + key + " needs a number, got '" +
                                it->second + "'");
  }
  return value;
}

}  // namespace clo
