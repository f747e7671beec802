#pragma once
// Tiny command-line flag parser shared by benches and examples.
// Supports "--flag", "--key value" and "--key=value" forms.

#include <map>
#include <string>
#include <vector>

namespace clo {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  bool has(const std::string& flag) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// `fallback` when the flag is absent or has no value; throws
  /// std::invalid_argument naming the flag when the value is not a whole
  /// base-10 int (resp. a number), e.g. "12x" or "abc".
  int get_int(const std::string& key, int fallback) const;
  double get_double(const std::string& key, double fallback) const;

  /// Non-flag positional arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace clo
