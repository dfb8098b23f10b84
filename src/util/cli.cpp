#include "util/cli.hpp"

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "util/require.hpp"

namespace dmra {

namespace {

using Base = Cli::Kind::Base;

constexpr double kExactLimit = 9007199254740992.0;  // 2^53

/// One number of `kind`, or false when `item` spells none.
bool parse_number(const Cli::Kind& kind, const std::string& item, double* out) {
  if (item.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(item.c_str(), &end);
  if (*end != '\0' || !std::isfinite(v)) return false;
  if (kind.base == Base::kWhole && (v != std::floor(v) || v >= kExactLimit)) return false;
  if (kind.min_open ? v <= kind.min : v < kind.min) return false;
  if (kind.max_open ? v >= kind.max : v > kind.max) return false;
  *out = v;
  return true;
}

/// The numbers `text` holds as a value of `kind` (yes/no reads 1 or 0;
/// text holds none), or false when the kind does not take it.
bool parse_value(const Cli::Kind& kind, const std::string& text, std::vector<double>* out) {
  out->clear();
  switch (kind.base) {
    case Base::kText: return true;
    case Base::kYesNo:
      if (text == "true" || text == "1" || text == "yes") out->push_back(1.0);
      if (text == "false" || text == "0" || text == "no") out->push_back(0.0);
      return !out->empty();
    case Base::kWhole:
    case Base::kNumber: break;
  }
  for (std::size_t pos = 0;;) {
    const std::size_t comma = kind.list ? text.find(',', pos) : std::string::npos;
    double v = 0.0;
    if (!parse_number(kind, text.substr(pos, comma - pos), &v)) return false;
    out->push_back(v);
    if (comma == std::string::npos) return true;
    pos = comma + 1;
  }
}

std::string bound(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// The kind in words, as help and errors print it.
std::string describe(const Cli::Kind& kind) {
  switch (kind.base) {
    case Base::kText: return "text";
    case Base::kYesNo: return "true/false, 1/0 or yes/no";
    case Base::kWhole:
    case Base::kNumber: break;
  }
  std::string out = kind.list ? "a comma list of " : "a ";
  out += kind.base == Base::kWhole ? "whole number" : "finite number";
  if (kind.list) out += 's';
  out += (kind.min_open ? " > " : " >= ") + bound(kind.min);
  if (std::isfinite(kind.max))
    out += (kind.max_open ? " and < " : " and <= ") + bound(kind.max);
  return out;
}

}  // namespace

Cli::Kind Cli::Kind::below(double limit) const {
  Kind k = *this;
  k.max = limit;
  k.max_open = true;
  return k;
}

Cli::Kind Cli::Kind::at_most(double limit) const {
  Kind k = *this;
  k.max = limit;
  k.max_open = false;
  return k;
}

Cli::Kind Cli::Kind::as_list() const {
  Kind k = *this;
  k.list = true;
  return k;
}

void Cli::add_flag(const std::string& name, const std::string& default_value, Kind kind,
                   const std::string& help) {
  DMRA_REQUIRE_MSG(!flags_.count(name), "duplicate flag: " + name);
  DMRA_REQUIRE_MSG(kind.base != Base::kWhole || (kind.min == std::floor(kind.min) &&
                                                 std::abs(kind.min) < kExactLimit),
                   "flag --" + name + " needs a whole minimum below 2^53");
  Flag flag{kind, default_value, default_value, help, {}};
  DMRA_REQUIRE_MSG(parse_value(kind, default_value, &flag.numbers),
                   "flag --" + name + " has a default that is not " + describe(kind) +
                       ": '" + default_value + "'");
  flags_[name] = std::move(flag);
}

bool Cli::parse(int argc, const char* const* argv, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) return fail("unexpected positional argument: " + arg);
    arg = arg.substr(2);
    std::string name, value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      if (i + 1 >= argc) return fail("flag --" + name + " is missing a value");
      value = argv[++i];
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) return fail("unknown flag: --" + name);
    Flag& flag = it->second;
    std::vector<double> numbers;
    if (!parse_value(flag.kind, value, &numbers))
      return fail("error: --" + name + " takes " + describe(flag.kind) + ", got '" + value + "'");
    flag.value = value;
    flag.numbers = std::move(numbers);
    flag.set = true;
  }
  return true;
}

void Cli::parse_or_exit(int argc, const char* const* argv) {
  std::string error;
  if (!parse(argc, argv, &error)) {
    std::cerr << error << '\n' << help_text(argv[0]);
    std::exit(1);
  }
  if (help_requested_) {
    std::cout << help_text(argv[0]);
    std::exit(0);
  }
}

std::string Cli::help_text(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [--flag value | --flag=value]...\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (" << describe(flag.kind) << "; default: " << flag.default_value
       << ")\n      " << flag.help << '\n';
  }
  return os.str();
}

const Cli::Flag& Cli::lookup(const std::string& name) const {
  auto it = flags_.find(name);
  DMRA_REQUIRE_MSG(it != flags_.end(), "flag not declared: " + name);
  return it->second;
}

const Cli::Flag& Cli::lookup(const std::string& name, Kind::Base base, bool list) const {
  const Flag& flag = lookup(name);
  DMRA_REQUIRE_MSG(flag.kind.base == base && flag.kind.list == list,
                   "flag --" + name + " takes " + describe(flag.kind));
  return flag;
}

std::string Cli::get_string(const std::string& name) const {
  return lookup(name, Base::kText, false).value;
}

bool Cli::get_bool(const std::string& name) const {
  return lookup(name, Base::kYesNo, false).numbers[0] != 0.0;
}

std::int64_t Cli::get_int(const std::string& name) const {
  return static_cast<std::int64_t>(lookup(name, Base::kWhole, false).numbers[0]);
}

std::size_t Cli::get_size(const std::string& name) const {
  const Flag& flag = lookup(name, Base::kWhole, false);
  DMRA_REQUIRE_MSG(flag.kind.min >= 0.0, "flag --" + name + " may be negative");
  return static_cast<std::size_t>(flag.numbers[0]);
}

double Cli::get_double(const std::string& name) const {
  return lookup(name, Base::kNumber, false).numbers[0];
}

std::vector<double> Cli::get_double_list(const std::string& name) const {
  const Flag& flag = lookup(name);
  DMRA_REQUIRE_MSG(flag.kind.list, "flag --" + name + " takes " + describe(flag.kind));
  return flag.numbers;
}

std::map<std::string, std::string> Cli::values() const {
  std::map<std::string, std::string> out;
  for (const auto& [name, flag] : flags_) out[name] = flag.value;
  return out;
}

bool Cli::is_set(const std::string& name) const { return lookup(name).set; }

}  // namespace dmra
