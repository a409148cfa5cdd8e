// The JSON module: byte-exact writer output (escapes, integer extremes,
// shortest round-trip doubles, non-finite numbers, layouts, the file sink)
// and the parser's rejection of malformed input.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/json.hpp"

namespace fghp {
namespace {

template <class Fn>
std::string written(Fn fn) {
  std::ostringstream os;
  json::Writer w(os);
  fn(w);
  return os.str();
}

TEST(JsonWriter, EscapesQuoteBackslashAndEveryControlByte) {
  std::string s = "q\"b\\";
  std::string want = "\"q\\\"b\\\\";
  const char* hex = "0123456789abcdef";
  for (int c = 0; c < 0x20; ++c) {
    s += static_cast<char>(c);
    want += std::string("\\u00") + hex[c >> 4] + hex[c & 0xf];
  }
  s += "caf\xc3\xa9 \xe2\x86\x92 ~\x7f";  // UTF-8 and DEL pass through unchanged
  want += "caf\xc3\xa9 \xe2\x86\x92 ~\x7f\"\n";
  EXPECT_EQ(written([&](json::Writer& w) { w.value(s); }), want);
  EXPECT_EQ(json::parse(want).str, s);
  // Keys follow the same rule.
  EXPECT_EQ(written([](json::Writer& w) { w.begin_object().member("a\"\n", 1).end_object(); }),
            "{\"a\\\"\\u000a\":1}\n");
}

TEST(JsonWriter, Int64ExtremesAreExact) {
  const std::string text = written([](json::Writer& w) {
    w.begin_array()
        .value(std::numeric_limits<std::int64_t>::min())
        .value(std::numeric_limits<std::int64_t>::max())
        .value(std::numeric_limits<std::uint64_t>::max())
        .end_array();
  });
  EXPECT_EQ(text, "[-9223372036854775808,9223372036854775807,18446744073709551615]\n");
}

TEST(JsonWriter, DoublesAreShortestRoundTrip) {
  const struct {
    double v;
    const char* text;
  } cases[] = {{0.1, "0.1"},       {1.0 / 3.0, "0.3333333333333333"},
               {1e-300, "1e-300"}, {5e-324, "5e-324"},
               {-0.0, "-0"},       {0.0174945, "0.0174945"}};
  for (const auto& c : cases) {
    const std::string text = written([&](json::Writer& w) { w.value(c.v); });
    EXPECT_EQ(text, std::string(c.text) + "\n");
    const double back = json::parse(text).number;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(c.v)) << text;
  }
}

TEST(JsonWriter, NonFiniteNumbersAreNull) {
  const std::string text = written([](json::Writer& w) {
    w.begin_array()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(std::numeric_limits<double>::infinity())
        .value(-std::numeric_limits<double>::infinity())
        .null()
        .value(true)
        .end_array();
  });
  EXPECT_EQ(text, "[null,null,null,null,true]\n");
  const json::Value doc = json::parse(text);
  EXPECT_EQ(doc.array[0].type, json::Value::Type::kNull);
}

TEST(JsonWriter, InlineAndOneMemberPerLineNesting) {
  const std::string text = written([](json::Writer& w) {
    w.begin_object(json::Layout::kLines).member("name", "x");
    w.key("rows").begin_array(json::Layout::kLines);
    w.begin_object().member("a", 1).key("b").begin_array().value(2).value(3).end_array();
    w.end_object();
    w.begin_object().end_object();
    w.end_array();
    w.key("empty").begin_object(json::Layout::kLines).end_object();
    w.key("inline").begin_object().member("c", 0.5).end_object();
    w.end_object();
  });
  EXPECT_EQ(text,
            "{\n"
            "  \"name\":\"x\",\n"
            "  \"rows\":[\n"
            "    {\"a\":1,\"b\":[2,3]},\n"
            "    {}\n"
            "  ],\n"
            "  \"empty\":{},\n"
            "  \"inline\":{\"c\":0.5}\n"
            "}\n");
}

TEST(JsonWriter, WriteFileDashWritesStdout) {
  ::testing::internal::CaptureStdout();
  json::write_file("-", [](std::ostream& o) { json::Writer(o).value(7); });
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), "7\n");
}

TEST(JsonWriter, WriteFileUnwritablePathRaisesIoError) {
  const std::string path = ::testing::TempDir() + "no-such-dir/x.json";
  try {
    json::write_file(path, [](std::ostream& o) { json::Writer(o).value(1); });
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(exit_code(e), 3);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(JsonParse, RejectsBadUnicodeEscapesAndPartialNumbers) {
  // Each must be a typed FormatError: a stray std::invalid_argument would
  // turn `fghp_tool report FILE` into a usage error, and a silent prefix
  // parse would accept a corrupt file.
  for (const std::string bad :
       {R"({"s": "\uZZZZ"})", R"({"s": "\u-1ab"})", R"({"s": "\u 12a"})", R"({"n": 1-2})",
        R"({"n": 1.2.3})"}) {
    EXPECT_THROW(json::parse(bad), FormatError) << bad;
  }
  // Spellings JSON's number grammar forbids even though std::from_chars
  // reads them.
  for (const std::string bad : {"01", "-01", "1.", ".5", "-", "+1", "1e", "1e+", "-.5", "00"}) {
    EXPECT_THROW(json::parse(R"({"n": )" + bad + "}"), FormatError) << bad;
  }
  EXPECT_EQ(json::parse(R"({"s": "A"})").at("s").str, "A");
  EXPECT_EQ(json::parse(R"({"n": -1.5e+2})").at("n").number, -150.0);
  EXPECT_EQ(json::parse("0").number, 0.0);
  EXPECT_TRUE(std::signbit(json::parse("-0").number));
  EXPECT_EQ(json::parse("0.5").number, 0.5);
  EXPECT_EQ(json::parse("1e5").number, 1e5);
  EXPECT_EQ(json::parse("1E-5").number, 1E-5);
  // Everything the writer emits reads back: shortest round-trip doubles.
  for (const double d : {0.1, 1.0 / 3.0, 1e-300, 5e-324, -0.0, 1e21, 123456789.0, -2.5e-7,
                         std::numeric_limits<double>::max()}) {
    const std::string text = written([&](json::Writer& w) { w.value(d); });
    EXPECT_EQ(std::bit_cast<std::uint64_t>(json::parse(text).number),
              std::bit_cast<std::uint64_t>(d))
        << text;
  }
}

TEST(JsonParse, RejectsRawControlBytesInStrings) {
  // JSON admits a control character in a string only as an escape; the
  // writer always escapes them, so a raw one means a corrupt file.
  for (int c = 0; c < 0x20; ++c) {
    const std::string bad = std::string("{\"s\": \"a") + static_cast<char>(c) + "b\"}";
    EXPECT_THROW(json::parse(bad), FormatError) << "byte " << c;
  }
  EXPECT_EQ(json::parse(R"({"s": "a\nb\u001f"})").at("s").str, "a\nb\x1f");
  EXPECT_EQ(json::parse("{\"s\": \"a\x7f b\"}").at("s").str, "a\x7f b");
}

}  // namespace
}  // namespace fghp
