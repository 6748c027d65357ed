// Unit and property tests for the JSON document model, parser and writer.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "support/common.hpp"
#include "support/json.hpp"

namespace json = sdl::support::json;
using sdl::support::ParseError;

TEST(Json, ParsesScalars) {
    EXPECT_TRUE(json::parse("null").is_null());
    EXPECT_EQ(json::parse("true").as_bool(), true);
    EXPECT_EQ(json::parse("false").as_bool(), false);
    EXPECT_EQ(json::parse("42").as_int(), 42);
    EXPECT_EQ(json::parse("-7").as_int(), -7);
    EXPECT_DOUBLE_EQ(json::parse("3.25").as_double(), 3.25);
    EXPECT_DOUBLE_EQ(json::parse("1e3").as_double(), 1000.0);
    EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, IntegersStayIntegers) {
    const json::Value v = json::parse("123456789012345");
    EXPECT_TRUE(v.is_int());
    EXPECT_EQ(v.as_int(), 123456789012345LL);
    EXPECT_TRUE(json::parse("1.0").is_double());
}

TEST(Json, ParsesNestedStructures) {
    const json::Value v = json::parse(R"({
        "name": "run_12",
        "samples": [1, 2, 3],
        "meta": {"batch": 8, "ok": true, "score": 10.5}
    })");
    EXPECT_EQ(v.at("name").as_string(), "run_12");
    EXPECT_EQ(v.at("samples").as_array().size(), 3u);
    EXPECT_EQ(v.at("samples").as_array()[2].as_int(), 3);
    EXPECT_EQ(v.at("meta").at("batch").as_int(), 8);
    EXPECT_TRUE(v.at("meta").at("ok").as_bool());
    EXPECT_DOUBLE_EQ(v.at("meta").at("score").as_double(), 10.5);
}

TEST(Json, ObjectPreservesInsertionOrder) {
    json::Value v = json::Value::object();
    v.set("zebra", 1);
    v.set("alpha", 2);
    v.set("mid", 3);
    std::string keys;
    for (const auto& [k, val] : v.as_object()) keys += k + ",";
    EXPECT_EQ(keys, "zebra,alpha,mid,");
}

TEST(Json, SetOverwritesExistingKey) {
    json::Value v = json::Value::object();
    v.set("x", 1);
    v.set("x", 2);
    EXPECT_EQ(v.at("x").as_int(), 2);
    EXPECT_EQ(v.as_object().size(), 1u);
}

TEST(Json, StringEscapes) {
    const json::Value v = json::parse(R"("line\nbreak\t\"quoted\" back\\slash")");
    EXPECT_EQ(v.as_string(), "line\nbreak\t\"quoted\" back\\slash");
}

TEST(Json, UnicodeEscapes) {
    EXPECT_EQ(json::parse(R"("A")").as_string(), "A");
    EXPECT_EQ(json::parse(R"("é")").as_string(), "\xc3\xa9");          // é
    EXPECT_EQ(json::parse(R"("中")").as_string(), "\xe4\xb8\xad");      // 中
    EXPECT_EQ(json::parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80");  // 😀
}

TEST(Json, RejectsMalformedInput) {
    EXPECT_THROW(json::parse(""), ParseError);
    EXPECT_THROW(json::parse("{"), ParseError);
    EXPECT_THROW(json::parse("[1,]"), ParseError);
    EXPECT_THROW(json::parse("{\"a\" 1}"), ParseError);
    EXPECT_THROW(json::parse("{'a': 1}"), ParseError);
    EXPECT_THROW(json::parse("tru"), ParseError);
    EXPECT_THROW(json::parse("1 2"), ParseError);
    EXPECT_THROW(json::parse("\"unterminated"), ParseError);
    EXPECT_THROW(json::parse("[1] trailing"), ParseError);
}

TEST(Json, ReportsErrorLocation) {
    try {
        (void)json::parse("{\n  \"a\": ?\n}");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_GT(e.column(), 1u);
    }
}

TEST(Json, RejectsDeepNesting) {
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_THROW(json::parse(deep), ParseError);
}

TEST(Json, DumpCompact) {
    json::Value v = json::Value::object();
    v.set("a", 1);
    v.set("b", json::Array{json::Value(true), json::Value(nullptr)});
    EXPECT_EQ(v.dump(), R"({"a":1,"b":[true,null]})");
}

TEST(Json, PrettyPrintsIndented) {
    json::Value v = json::Value::object();
    v.set("a", 1);
    const std::string text = v.pretty();
    EXPECT_NE(text.find("{\n  \"a\": 1\n}"), std::string::npos);
}

TEST(Json, DoublesSurviveRoundTripAsDoubles) {
    const json::Value v = json::parse(json::Value(2.0).dump());
    EXPECT_TRUE(v.is_double());
    EXPECT_DOUBLE_EQ(v.as_double(), 2.0);
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
    EXPECT_EQ(json::Value(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
    EXPECT_EQ(json::Value(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, GetOrFallbacks) {
    const json::Value v =
        json::parse(R"({"s": "x", "n": 2, "d": 2.5, "b": true, "null": null})");
    EXPECT_EQ(v.get_or("s", std::string("def")), "x");
    EXPECT_EQ(v.get_or("missing", std::string("def")), "def");
    EXPECT_EQ(v.get_or("n", std::int64_t{9}), 2);
    EXPECT_DOUBLE_EQ(v.get_or("d", 0.0), 2.5);
    EXPECT_DOUBLE_EQ(v.get_or("n", 0.0), 2.0);  // int readable as double
    EXPECT_EQ(v.get_or("b", false), true);
    EXPECT_EQ(v.get_or("missing", std::int64_t{9}), 9);
    // A null value is as good as absent.
    EXPECT_EQ(v.get_or("null", std::int64_t{9}), 9);
    EXPECT_EQ(v.get_or("null", std::string("def")), "def");
    EXPECT_DOUBLE_EQ(v.get_or("null", 1.5), 1.5);
    EXPECT_EQ(v.get_or("null", true), true);
}

TEST(Json, GetOrRejectsAWrongTypedValueNamingTheKey) {
    const json::Value v = json::parse(
        R"({"total_samples": "many", "batch_size": 2.5, "publish": "no",)"
        R"( "timing_scale": "fast", "name": 7, "count": [1], "flag": 1})");
    const auto message = [](auto read) {
        try {
            (void)read();
        } catch (const sdl::support::ConfigError& e) {
            return std::string(e.what());
        }
        return std::string("no ConfigError");
    };
    const std::pair<std::string, std::string> cases[] = {
        {"total_samples", message([&] { return v.get_or("total_samples", std::int64_t{1}); })},
        {"batch_size", message([&] { return v.get_or("batch_size", std::int64_t{1}); })},
        {"publish", message([&] { return v.get_or("publish", true); })},
        {"timing_scale", message([&] { return v.get_or("timing_scale", 1.0); })},
        {"name", message([&] { return v.get_or("name", std::string("x")); })},
        {"count", message([&] { return v.get_or("count", std::int64_t{1}); })},
        {"flag", message([&] { return v.get_or("flag", false); })},
    };
    for (const auto& [key, what] : cases) {
        EXPECT_NE(what.find(key + " must be "), std::string::npos) << key << ": " << what;
    }
    // The value itself is quoted back.
    EXPECT_NE(cases[0].second.find("not \"many\""), std::string::npos) << cases[0].second;
    // The direct reads name what the caller says.
    EXPECT_NE(message([&] { return v.at("batch_size").as_int("grid.batch_sizes entry"); })
                  .find("grid.batch_sizes entry must be an integer, not 2.5"),
              std::string::npos);
}

TEST(Json, TypeMismatchThrows) {
    const json::Value v = json::parse(R"({"a": 1})");
    EXPECT_THROW((void)v.at("a").as_string(), sdl::support::Error);
    EXPECT_THROW((void)v.at("missing"), sdl::support::Error);
    EXPECT_THROW((void)v.as_array(), sdl::support::Error);
}

TEST(Json, EqualityComparesAcrossIntAndDouble) {
    EXPECT_EQ(json::parse("3"), json::parse("3.0"));
    EXPECT_FALSE(json::parse("3") == json::parse("4"));
}

// Property: parse(dump(v)) == v for a structured document.
TEST(Json, RoundTripProperty) {
    const char* doc = R"({
      "experiment": "color_picker",
      "batch_sizes": [1, 2, 4, 8, 16, 32, 64],
      "target": {"r": 120, "g": 120, "b": 120},
      "scores": [29.5, 17.25, 10.125],
      "notes": "first batch random; solveré",
      "published": true,
      "failures": null
    })";
    const json::Value v = json::parse(doc);
    EXPECT_EQ(json::parse(v.dump()), v);
    EXPECT_EQ(json::parse(v.pretty()), v);
}

class JsonNumberRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(JsonNumberRoundTrip, Exact) {
    const double d = GetParam();
    const json::Value v = json::parse(json::Value(d).dump());
    EXPECT_DOUBLE_EQ(v.as_double(), d);
}

INSTANTIATE_TEST_SUITE_P(Values, JsonNumberRoundTrip,
                         ::testing::Values(0.0, 1.0, -1.5, 0.1, 1e-12, 3.0e17,
                                           230.625, -0.0078125, 1e300));
