#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace dmra {
namespace {

Cli make_cli() {
  Cli cli;
  cli.add_flag("ues", "500", Cli::whole(1), "UE count");
  cli.add_flag("rho", "100.5", Cli::number(0), "rho");
  cli.add_flag("verbose", "false", Cli::yes_no(), "verbosity");
  cli.add_flag("list", "1,2,3", Cli::number(0).as_list(), "a list");
  return cli;
}

TEST(Cli, DefaultsApplyWithoutArgs) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("ues"), 500);
  EXPECT_DOUBLE_EQ(cli.get_double("rho"), 100.5);
  EXPECT_FALSE(cli.get_bool("verbose"));
}

TEST(Cli, SpaceSeparatedForm) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--ues", "900"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("ues"), 900);
}

TEST(Cli, EqualsForm) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--rho=42.25", "--verbose=true"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("rho"), 42.25);
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, UnknownFlagFailsWithMessage) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--nope", "1"};
  std::string error;
  EXPECT_FALSE(cli.parse(3, argv, &error));
  EXPECT_NE(error.find("nope"), std::string::npos);
}

TEST(Cli, MissingValueFails) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--ues"};
  std::string error;
  EXPECT_FALSE(cli.parse(2, argv, &error));
  EXPECT_NE(error.find("missing"), std::string::npos);
}

TEST(Cli, PositionalArgumentFails) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "stray"};
  std::string error;
  EXPECT_FALSE(cli.parse(2, argv, &error));
}

TEST(Cli, HelpRequested) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.help_requested());
  const std::string help = cli.help_text("prog");
  EXPECT_NE(help.find("--ues"), std::string::npos);
  EXPECT_NE(help.find("500"), std::string::npos);
  // Each flag's kind and range, in the words parse() errors use.
  EXPECT_NE(help.find("--ues (a whole number >= 1; default: 500)"), std::string::npos);
  EXPECT_NE(help.find("--list (a comma list of finite numbers >= 0; default: 1,2,3)"),
            std::string::npos);
  EXPECT_NE(help.find("--verbose (true/false, 1/0 or yes/no; default: false)"),
            std::string::npos);
}

TEST(Cli, DoubleListParsing) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--list=400,500.5,600"};
  ASSERT_TRUE(cli.parse(2, argv));
  const std::vector<double> xs = cli.get_double_list("list");
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_DOUBLE_EQ(xs[0], 400.0);
  EXPECT_DOUBLE_EQ(xs[1], 500.5);
  EXPECT_DOUBLE_EQ(xs[2], 600.0);
}

// A default the flag's kind rejects is a programmer error, caught where
// the flag is declared; so is reading a flag as another kind.
TEST(Cli, BadNumbersAreContractViolations) {
  Cli cli;
  EXPECT_THROW(cli.add_flag("a", "abc", Cli::whole(0), ""), ContractViolation);
  EXPECT_THROW(cli.add_flag("b", "-1", Cli::number(0), ""), ContractViolation);
  EXPECT_THROW(cli.add_flag("c", "maybe", Cli::yes_no(), ""), ContractViolation);
  EXPECT_THROW(cli.add_flag("d", "1,,2", Cli::whole(0).as_list(), ""), ContractViolation);
  EXPECT_THROW(cli.add_flag("e", "0", Cli::whole(0.5), ""), ContractViolation);

  cli = make_cli();
  cli.add_flag("prefill", "-1", Cli::whole(-1), "may be negative");
  cli.add_flag("path", "", Cli::text(), "a path");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW(cli.get_double("ues"), ContractViolation);
  EXPECT_THROW(cli.get_int("rho"), ContractViolation);
  EXPECT_THROW(cli.get_bool("path"), ContractViolation);
  EXPECT_THROW(cli.get_string("ues"), ContractViolation);
  EXPECT_THROW(cli.get_double_list("rho"), ContractViolation);
  EXPECT_THROW(cli.get_double("list"), ContractViolation);
  EXPECT_THROW(cli.get_size("prefill"), ContractViolation);
  EXPECT_EQ(cli.get_int("prefill"), -1);
}

// Every value a flag's kind does not take fails parse() with an error
// naming the flag, in both spellings, and leaves the value unread.
TEST(Cli, RejectsEachBadValueNamingTheFlag) {
  struct Case {
    Cli::Kind kind;
    const char* fine;  // a value the kind takes, the flag's default
    const char* takes;
    std::vector<std::string> bad;
  };
  const std::vector<Case> cases = {
      {Cli::whole(1),
       "1",
       "a whole number >= 1",
       {"abc", "nan", "inf", "-inf", "0", "-3", "2.5", "9007199254740992", "1e300", "",
        "1,2", " 7 "}},
      {Cli::number(0),
       "0",
       "a finite number >= 0",
       {"x", "nan", "NAN", "inf", "infinity", "1e999", "-0.5", "", "1,2", "3x"}},
      {Cli::number(0).below(1), "0.5", "a finite number >= 0 and < 1",
       {"1", "2", "-1e-9", "nan"}},
      {Cli::number_above(0).at_most(1), "1", "a finite number > 0 and <= 1",
       {"0", "1.5", "inf"}},
      {Cli::number_above(1), "2", "a finite number > 1", {"1", "0.5"}},
      {Cli::whole(0).as_list(),
       "0,1",
       "a comma list of whole numbers >= 0",
       {"", ",", "1,,2", ",1", "1,", "1,x", "1,-3", "1,2.5", "0,9007199254740992"}},
      {Cli::number(0).below(1).as_list(),
       "0,0.5",
       "a comma list of finite numbers >= 0 and < 1",
       {"0.5,", "0,nan", "0,inf", "0,1", ""}},
      {Cli::yes_no(), "no", "true/false, 1/0 or yes/no", {"maybe", "", "TRUE", "2", "y", "on"}},
  };
  for (const Case& c : cases) {
    for (const std::string& text : c.bad) {
      for (const bool equals_form : {true, false}) {
        Cli cli;
        cli.add_flag("x", "", Cli::text(), "unrelated");
        cli.add_flag("flag", c.fine, c.kind, "under test");
        const std::string joined = "--flag=" + text;
        const char* eq_argv[] = {"prog", joined.c_str()};
        const char* sp_argv[] = {"prog", "--flag", text.c_str()};
        std::string error;
        const bool ok = equals_form ? cli.parse(2, eq_argv, &error)
                                    : cli.parse(3, sp_argv, &error);
        EXPECT_FALSE(ok) << c.takes << " accepted '" << text << "'";
        EXPECT_EQ(error, std::string("error: --flag takes ") + c.takes + ", got '" + text + "'");
        EXPECT_FALSE(cli.is_set("flag"));
        EXPECT_EQ(cli.values().at("flag"), c.fine);
      }
    }
  }
}

// The edges of each range read back exactly, in both spellings.
TEST(Cli, AcceptsEachKindUpToItsBounds) {
  for (const bool equals_form : {true, false}) {
    Cli cli;
    cli.add_flag("count", "1", Cli::whole(1), "");
    cli.add_flag("big", "0", Cli::whole(0), "");
    cli.add_flag("p", "0.5", Cli::number(0).below(1), "");
    cli.add_flag("target", "0.5", Cli::number_above(0).at_most(1), "");
    cli.add_flag("counts", "1", Cli::whole(0).as_list(), "");
    cli.add_flag("on", "no", Cli::yes_no(), "");
    cli.add_flag("path", "", Cli::text(), "");
    const std::vector<std::pair<std::string, std::string>> given = {
        {"count", "1"},      {"big", "9007199254740991"}, {"p", "0"},  {"target", "1"},
        {"counts", "0,1e3,7"}, {"on", "yes"},             {"path", "nan,,x"}};
    std::vector<std::string> args = {"prog"};
    for (const auto& [name, value] : given) {
      if (equals_form) {
        args.push_back("--" + name + "=" + value);
      } else {
        args.push_back("--" + name);
        args.push_back(value);
      }
    }
    std::vector<const char*> argv;
    for (const std::string& a : args) argv.push_back(a.c_str());
    std::string error;
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data(), &error)) << error;
    EXPECT_EQ(cli.get_size("count"), 1u);
    EXPECT_EQ(cli.get_size("big"), 9007199254740991u);
    EXPECT_EQ(cli.get_double("p"), 0.0);
    EXPECT_EQ(cli.get_double("target"), 1.0);
    EXPECT_EQ(cli.get_double_list("counts"), (std::vector<double>{0.0, 1000.0, 7.0}));
    EXPECT_TRUE(cli.get_bool("on"));
    EXPECT_EQ(cli.get_string("path"), "nan,,x");
    EXPECT_EQ(cli.values().at("counts"), "0,1e3,7");  // the raw text, as given
  }
}

TEST(Cli, UndeclaredLookupIsContractViolation) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW(cli.get_string("ghost"), ContractViolation);
}

TEST(Cli, DuplicateDeclarationIsContractViolation) {
  Cli cli;
  cli.add_flag("x", "1", Cli::whole(0), "first");
  EXPECT_THROW(cli.add_flag("x", "2", Cli::whole(0), "again"), ContractViolation);
}

TEST(Cli, BoolAcceptsManySpellings) {
  Cli cli;
  cli.add_flag("a", "yes", Cli::yes_no(), "");
  cli.add_flag("b", "0", Cli::yes_no(), "");
  cli.add_flag("c", "no", Cli::yes_no(), "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_TRUE(cli.get_bool("a"));
  EXPECT_FALSE(cli.get_bool("b"));
  EXPECT_FALSE(cli.get_bool("c"));
}

TEST(Cli, ValuesSnapshotsEveryFlagWithEffectiveValue) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--ues=900"};
  ASSERT_TRUE(cli.parse(2, argv));
  const auto values = cli.values();
  ASSERT_EQ(values.size(), 4u);  // every declared flag, set or not
  EXPECT_EQ(values.at("ues"), "900");
  EXPECT_EQ(values.at("rho"), "100.5");  // default survives
  EXPECT_EQ(values.at("verbose"), "false");
  EXPECT_EQ(values.at("list"), "1,2,3");
}

TEST(Cli, IsSetDistinguishesExplicitFromDefault) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--ues=500"};  // explicit, equal to default
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.is_set("ues"));
  EXPECT_FALSE(cli.is_set("rho"));
  EXPECT_THROW(cli.is_set("ghost"), ContractViolation);
}

}  // namespace
}  // namespace dmra
