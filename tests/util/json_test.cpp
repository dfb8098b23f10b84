#include "util/json.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/require.hpp"

namespace dmra {
namespace {

JsonValue parse_ok(const std::string& text) {
  const JsonParseResult r = json_parse(text);
  EXPECT_TRUE(r.ok) << r.error << " at " << r.offset;
  return r.value;
}

TEST(Json, ScalarsRoundTrip) {
  EXPECT_EQ(JsonValue(nullptr).dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(42).dump(), "42");
  EXPECT_EQ(JsonValue(-3.5).dump(), "-3.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(Json, NumbersKeepPrecision) {
  const double v = 0.1234567890123456;
  const JsonValue parsed = parse_ok(JsonValue(v).dump());
  EXPECT_DOUBLE_EQ(parsed.as_number(), v);
}

TEST(Json, IntegersStayIntegral) {
  EXPECT_EQ(JsonValue(static_cast<std::uint64_t>(1234567)).dump(), "1234567");
  EXPECT_EQ(parse_ok("1234567").as_int(), 1234567);
}

TEST(Json, StringEscaping) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const JsonValue round = parse_ok(JsonValue(nasty).dump());
  EXPECT_EQ(round.as_string(), nasty);
  EXPECT_EQ(json_escape("\""), "\\\"");
  EXPECT_EQ(json_escape("\n"), "\\n");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(parse_ok("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_ok("\"\\u00e9\"").as_string(), "\xc3\xa9");   // é
  EXPECT_EQ(parse_ok("\"\\u4e2d\"").as_string(), "\xe4\xb8\xad");  // 中
}

TEST(Json, ArraysAndObjectsRoundTrip) {
  JsonObject obj;
  obj["list"] = JsonArray{JsonValue(1), JsonValue("two"), JsonValue(nullptr)};
  obj["nested"] = JsonObject{{"k", JsonValue(true)}};
  const JsonValue v(obj);
  for (int indent : {0, 2}) {
    const JsonValue round = parse_ok(v.dump(indent));
    EXPECT_EQ(round.at("list").as_array().size(), 3u);
    EXPECT_EQ(round.at("list").as_array()[1].as_string(), "two");
    EXPECT_TRUE(round.at("list").as_array()[2].is_null());
    EXPECT_TRUE(round.at("nested").at("k").as_bool());
  }
}

TEST(Json, PrettyPrintIsIndented) {
  JsonObject obj{{"a", JsonValue(1)}};
  const std::string pretty = JsonValue(obj).dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(Json, ParsesWhitespaceAndEmptyContainers) {
  EXPECT_TRUE(parse_ok(" [ ] ").as_array().empty());
  EXPECT_TRUE(parse_ok("\t{ }\n").as_object().empty());
  EXPECT_EQ(parse_ok("[1 , 2,3 ]").as_array().size(), 3u);
}

TEST(Json, ParseErrorsCarryOffsets) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated",
                          "[1] trailing", "{\"a\" 1}", "nul", "1e999", "[-1e999]"}) {
    const JsonParseResult r = json_parse(bad);
    EXPECT_FALSE(r.ok) << bad;
    EXPECT_FALSE(r.error.empty()) << bad;
  }
}

TEST(Json, TypeMismatchIsContractViolation) {
  const JsonValue v = parse_ok("{\"a\": 1}");
  EXPECT_THROW(v.as_array(), ContractViolation);
  EXPECT_THROW(v.at("a").as_string(), ContractViolation);
  EXPECT_THROW(v.at("missing"), ContractViolation);
  EXPECT_THROW(parse_ok("1.5").as_int(), ContractViolation);
  EXPECT_THROW(parse_ok("-1").as_u32(), ContractViolation);
  // Beyond int64: a range error, never an out-of-range cast.
  EXPECT_THROW(parse_ok("1e20").as_int(), ContractViolation);
  EXPECT_THROW(parse_ok("-1e19").as_int(), ContractViolation);
  EXPECT_EQ(parse_ok("-9007199254740992").as_int(), -9007199254740992);
}

TEST(Json, HasChecksMembership) {
  const JsonValue v = parse_ok("{\"a\": 1}");
  EXPECT_TRUE(v.has("a"));
  EXPECT_FALSE(v.has("b"));
  EXPECT_FALSE(parse_ok("3").has("a"));
}

TEST(Json, RejectsNonFiniteNumbersOnDump) {
  EXPECT_THROW(JsonValue(std::numeric_limits<double>::infinity()).dump(),
               ContractViolation);
}

}  // namespace
}  // namespace dmra
