#include <gtest/gtest.h>

#include <cmath>

#include "support/diagnostics.h"
#include "support/env.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/str.h"
#include "support/table.h"

namespace ifko {
namespace {

TEST(Str, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Str, SplitOnSeparator) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Str, SplitEmptyStringYieldsOneEmptyPart) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Str, StartsWith) {
  EXPECT_TRUE(startsWith("prefetchnta", "pref"));
  EXPECT_FALSE(startsWith("pre", "prefetch"));
}

TEST(Str, ReplaceAllSubstitutesEveryOccurrence) {
  EXPECT_EQ(replaceAll("TYPE @T; x @T", "@T", "double"),
            "TYPE double; x double");
  EXPECT_EQ(replaceAll("abc", "", "x"), "abc");
}

TEST(Str, FmtFixed) {
  EXPECT_EQ(fmtFixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmtFixed(100.0, 0), "100");
}

TEST(Rng, Deterministic) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformWithinRange) {
  SplitMix64 rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(-1.0, 1.0);
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BelowStaysBelow) {
  SplitMix64 rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Diagnostics, CountsErrorsOnly) {
  DiagnosticEngine d;
  d.warning({1, 1}, "w");
  EXPECT_FALSE(d.hasErrors());
  d.error({2, 3}, "boom");
  EXPECT_TRUE(d.hasErrors());
  EXPECT_EQ(d.errorCount(), 1u);
  EXPECT_NE(d.str().find("error at 2:3: boom"), std::string::npos);
}

TEST(Diagnostics, ClearResets) {
  DiagnosticEngine d;
  d.error({}, "x");
  d.clear();
  EXPECT_FALSE(d.hasErrors());
  EXPECT_TRUE(d.diagnostics().empty());
}

TEST(Table, AlignsColumns) {
  TextTable t;
  t.setHeader({"name", "value"});
  t.addRow({"x", "1"});
  t.addRow({"longer", "22"});
  std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RuleBetweenRows) {
  TextTable t;
  t.addRow({"a"});
  t.addRule();
  t.addRow({"b"});
  std::string s = t.str();
  size_t a = s.find("a"), dash = s.find("-"), b = s.find("b");
  EXPECT_LT(a, dash);
  EXPECT_LT(dash, b);
}

TEST(Env, FallbackWhenUnset) {
  EXPECT_EQ(envInt("IFKO_SURELY_UNSET_VAR_12345", 42), 42);
}

TEST(Env, ParsesValue) {
  ::setenv("IFKO_TEST_ENV_VAR", "123", 1);
  EXPECT_EQ(envInt("IFKO_TEST_ENV_VAR", 0), 123);
  ::unsetenv("IFKO_TEST_ENV_VAR");
}


TEST(Hash, Fnv1aIsStableAndCollisionFree) {
  // Known FNV-1a vectors; the cache key format depends on these staying put.
  EXPECT_EQ(fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a("a"), 12638187200555641996ull);
  EXPECT_NE(fnv1a("LOOP i = 0, N"), fnv1a("LOOP i = 0, M"));
}

TEST(Hash, HashHexIs16LowercaseDigits) {
  std::string h = hashHex("ddot kernel source");
  EXPECT_EQ(h.size(), 16u);
  for (char c : h)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << h;
  EXPECT_EQ(hashHex(""), "cbf29ce484222325");
}

TEST(Json, EscapeHandlesSpecials) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, WriterProducesFlatObject) {
  JsonWriter w;
  w.field("name", "ddot").field("cycles", int64_t{64912}).field("ok", true);
  EXPECT_EQ(w.str(),
            "{\"name\":\"ddot\",\"cycles\":64912,\"ok\":true}");
}

TEST(Json, ParseRoundTripsWriterOutput) {
  JsonWriter w;
  w.field("params", "sv=Y \"q\"").field("n", int64_t{4096}).field("hit", false);
  std::map<std::string, JsonValue> obj;
  std::string err;
  ASSERT_TRUE(parseJsonObject(w.str(), &obj, &err)) << err;
  EXPECT_EQ(obj.at("params").string, "sv=Y \"q\"");
  EXPECT_EQ(obj.at("n").asInt(), 4096);
  EXPECT_EQ(obj.at("hit").kind, JsonValue::Kind::Bool);
  EXPECT_FALSE(obj.at("hit").boolean);
}

TEST(Json, CheckedIntegerAccessors) {
  std::map<std::string, JsonValue> obj;
  ASSERT_TRUE(parseJsonObject(
      "{\"i\":4096,\"neg\":-3,\"frac\":4096.9,\"big\":1e30,"
      "\"zero\":0,\"s\":\"7\"}",
      &obj));
  EXPECT_EQ(obj.at("i").intValue(), 4096);
  EXPECT_EQ(obj.at("i").uintValue(), 4096u);
  EXPECT_EQ(obj.at("neg").intValue(), -3);
  EXPECT_FALSE(obj.at("neg").uintValue().has_value());
  EXPECT_FALSE(obj.at("frac").intValue().has_value());
  EXPECT_FALSE(obj.at("frac").uintValue().has_value());
  EXPECT_FALSE(obj.at("big").intValue().has_value());
  EXPECT_FALSE(obj.at("big").uintValue().has_value());
  EXPECT_EQ(obj.at("zero").uintValue(), 0u);
  EXPECT_FALSE(obj.at("s").intValue().has_value());  // not a Number
  JsonValue nan;
  nan.kind = JsonValue::Kind::Number;
  nan.number = std::nan("");
  EXPECT_FALSE(nan.intValue().has_value());
  EXPECT_FALSE(nan.uintValue().has_value());
}

TEST(Json, ParseRejectsMalformed) {
  std::map<std::string, JsonValue> obj;
  EXPECT_FALSE(parseJsonObject("not json", &obj));
  EXPECT_FALSE(parseJsonObject("{\"a\":1", &obj));
  EXPECT_FALSE(parseJsonObject("{\"a\":[1,2]}", &obj));
  EXPECT_FALSE(parseJsonObject("{\"a\":1} trailing", &obj));
  EXPECT_TRUE(parseJsonObject("{}", &obj));
}

TEST(Json, NestedObjectRoundTrip) {
  JsonWriter inner;
  inner.field("attr_issue", uint64_t{12}).field("repeat_converged", true);
  JsonWriter outer;
  outer.field("event", "candidate").field("counters", inner);
  EXPECT_EQ(outer.str(),
            "{\"event\":\"candidate\",\"counters\":"
            "{\"attr_issue\":12,\"repeat_converged\":true}}");

  std::map<std::string, JsonValue> obj;
  std::string err;
  ASSERT_TRUE(parseJsonObject(outer.str(), &obj, &err)) << err;
  const JsonValue& counters = obj.at("counters");
  ASSERT_EQ(counters.kind, JsonValue::Kind::Object);
  ASSERT_NE(counters.object, nullptr);
  EXPECT_EQ(counters.object->at("attr_issue").asUint(), 12u);
  EXPECT_TRUE(counters.object->at("repeat_converged").boolean);
}

TEST(Json, ParseRejectsDeeplyNestedObjects) {
  std::map<std::string, JsonValue> obj;
  // Depth 2 is fine (a counters object inside an event)...
  EXPECT_TRUE(parseJsonObject("{\"a\":{\"b\":{\"c\":1}}}", &obj));
  // ...but unbounded nesting is not: the format is line-oriented records,
  // not a document language.
  EXPECT_FALSE(parseJsonObject(
      "{\"a\":{\"b\":{\"c\":{\"d\":{\"e\":{\"f\":1}}}}}}", &obj));
}

TEST(Str, ParseInt64Strict) {
  int64_t v = -1;
  EXPECT_TRUE(parseInt64("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(parseInt64("80000", &v));
  EXPECT_EQ(v, 80000);
  EXPECT_TRUE(parseInt64("-42", &v));
  EXPECT_EQ(v, -42);

  // Rejections must not clobber the output.
  v = 7;
  EXPECT_FALSE(parseInt64("", &v));
  EXPECT_FALSE(parseInt64("12abc", &v));
  EXPECT_FALSE(parseInt64("abc", &v));
  EXPECT_FALSE(parseInt64("4 ", &v));
  EXPECT_FALSE(parseInt64(" 4", &v));
  EXPECT_FALSE(parseInt64("99999999999999999999999999", &v));  // ERANGE
  EXPECT_EQ(v, 7);
}

}  // namespace
}  // namespace ifko
