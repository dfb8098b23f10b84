// Command-line flag parser for benches and examples.
//
// Supports "--name value" and "--name=value". Every flag is declared with
// a kind (text, yes/no, a whole or finite number, or a comma list of
// numbers) and, for numbers, a range. parse() rejects unknown flags and
// every value its flag's kind does not take, with an error naming the
// flag, so a typo neither runs the default experiment nor reaches a
// DMRA_REQUIRE, and a negative count never wraps a std::size_t. The typed
// getters then cannot fail on a declared flag.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace dmra {

class Cli {
 public:
  /// What a flag takes. Numbers are finite and inside the declared range;
  /// whole numbers are also integral and below 2^53, where doubles stop
  /// being exact, so casting one to std::size_t is defined.
  struct Kind {
    enum class Base : std::uint8_t { kText, kYesNo, kWhole, kNumber };
    Base base = Base::kText;
    bool list = false;  ///< comma-separated, no empty items
    double min = -std::numeric_limits<double>::infinity();
    bool min_open = false;  ///< min < value rather than min <= value
    double max = std::numeric_limits<double>::infinity();
    bool max_open = true;  ///< value < max rather than value <= max

    Kind below(double bound) const;    ///< and value < bound
    Kind at_most(double bound) const;  ///< and value <= bound
    Kind as_list() const;              ///< a comma list of such values
  };

  /// Free text: paths, and specs that keep their own grammar (--faults).
  static Kind text() { return {}; }
  /// true/1/yes or false/0/no.
  static Kind yes_no() { return {.base = Kind::Base::kYesNo}; }
  /// A whole number >= min.
  static Kind whole(double min) { return {.base = Kind::Base::kWhole, .min = min}; }
  /// A finite number >= min.
  static Kind number(double min) { return {.base = Kind::Base::kNumber, .min = min}; }
  /// A finite number > min.
  static Kind number_above(double min) {
    return {.base = Kind::Base::kNumber, .min = min, .min_open = true};
  }

  /// Declare a flag with its default, kind and help text. Call before
  /// parse(). A default the kind rejects is a ContractViolation.
  void add_flag(const std::string& name, const std::string& default_value, Kind kind,
                const std::string& help);

  /// Parse argv. Returns false (and fills `error`) on unknown flags,
  /// missing values, or a value the flag's kind does not take; the last
  /// reads "error: --<flag> takes <kind>, got '<text>'", the kind in words
  /// ("a whole number >= 1", "a comma list of finite numbers >= 0 and < 1")
  /// as help_text() prints it. "--help" sets help_requested().
  bool parse(int argc, const char* const* argv, std::string* error = nullptr);

  /// parse() for a main(): on an error, print it and the help text to
  /// stderr and exit 1; on --help, print the help text to stdout and exit 0.
  void parse_or_exit(int argc, const char* const* argv);

  bool help_requested() const { return help_requested_; }
  std::string help_text(const std::string& program) const;

  /// Typed getters. Asking for an undeclared flag, or for a flag of another
  /// kind, is a ContractViolation; a declared flag's value always reads.
  std::string get_string(const std::string& name) const;  ///< text
  bool get_bool(const std::string& name) const;            ///< yes/no
  std::int64_t get_int(const std::string& name) const;     ///< whole
  std::size_t get_size(const std::string& name) const;     ///< whole, min >= 0
  double get_double(const std::string& name) const;        ///< number
  /// A list of whole or finite numbers, e.g. "--rho=0,100,200".
  std::vector<double> get_double_list(const std::string& name) const;

  /// Every declared flag with its effective (parsed-or-default) text, in
  /// name order — the provenance snapshot a run manifest records.
  std::map<std::string, std::string> values() const;

  /// True iff the flag was set on the command line (differs from knowing
  /// its value: an explicit "--jobs=0" counts as set).
  bool is_set(const std::string& name) const;

 private:
  struct Flag {
    Kind kind;
    std::string value;
    std::string default_value;
    std::string help;
    std::vector<double> numbers;  ///< the parsed value; yes/no reads 1 or 0
    bool set = false;             ///< appeared on the command line
  };
  std::map<std::string, Flag> flags_;
  bool help_requested_ = false;
  const Flag& lookup(const std::string& name) const;
  const Flag& lookup(const std::string& name, Kind::Base base, bool list) const;
};

}  // namespace dmra
