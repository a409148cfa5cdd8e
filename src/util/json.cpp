#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <ostream>

#include "util/error.hpp"

namespace fghp::json {

// ----------------------------------------------------------------- writer ----

Writer& Writer::begin_object(Layout layout) { return open('{', layout); }
Writer& Writer::end_object() { return close('}'); }
Writer& Writer::begin_array(Layout layout) { return open('[', layout); }
Writer& Writer::end_array() { return close(']'); }

Writer& Writer::key(std::string_view k) {
  before_value();
  quoted(k);
  out_ << ':';
  afterKey_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  before_value();
  quoted(s);
  after_value();
  return *this;
}

void Writer::quoted(std::string_view s) {
  out_ << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out_ << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      static constexpr char kHex[] = "0123456789abcdef";
      out_ << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
    } else {
      out_ << c;
    }
  }
  out_ << '"';
}

Writer& Writer::value(double v) {
  if (!std::isfinite(v)) return null();
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return literal(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
}

Writer& Writer::literal(std::string_view text) {
  before_value();
  out_ << text;
  after_value();
  return *this;
}

Writer& Writer::open(char bracket, Layout layout) {
  before_value();
  out_ << bracket;
  stack_.push_back({layout == Layout::kLines, false});
  if (layout == Layout::kLines) ++lineDepth_;
  return *this;
}

Writer& Writer::close(char bracket) {
  const Frame f = stack_.back();
  stack_.pop_back();
  if (f.lines) {
    --lineDepth_;
    if (f.any) newline(lineDepth_);
  }
  out_ << bracket;
  after_value();
  return *this;
}

void Writer::before_value() {
  if (afterKey_) {
    afterKey_ = false;
    return;
  }
  if (stack_.empty()) return;
  Frame& f = stack_.back();
  if (f.any) out_ << ',';
  f.any = true;
  if (f.lines) newline(lineDepth_);
}

void Writer::after_value() {
  if (stack_.empty()) out_ << '\n';
}

void Writer::newline(int depth) {
  out_ << '\n';
  for (int i = 0; i < depth; ++i) out_ << "  ";
}

void write_file(const std::string& pathOrDash,
                const std::function<void(std::ostream&)>& write) {
  std::ofstream file;
  std::ostream* out = &std::cout;
  if (pathOrDash != "-") {
    file.open(pathOrDash);
    if (!file)
      throw IoError("cannot open for writing: " + pathOrDash, at_path(pathOrDash));
    out = &file;
  }
  write(*out);
  out->flush();
  if (!*out) throw IoError("write failed: " + pathOrDash, at_path(pathOrDash));
}

// ----------------------------------------------------------------- parser ----

bool Value::has(const std::string& key) const {
  return type == Type::kObject && object.count(key) > 0;
}

const Value& Value::at(const std::string& key) const {
  if (type != Type::kObject) throw FormatError("JSON: member access on a non-object");
  const auto it = object.find(key);
  if (it == object.end()) throw FormatError("JSON: missing member '" + key + "'");
  return it->second;
}

namespace {

/// True when [p, last) spells a number in JSON's grammar,
/// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? — std::from_chars alone
/// would also take "01", "1." and ".5".
bool is_json_number(const char* p, const char* last) {
  auto digits = [&] {
    const char* first = p;
    while (p < last && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    return p > first;
  };
  if (p < last && *p == '-') ++p;
  if (p < last && *p == '0') {
    ++p;
  } else if (!digits()) {
    return false;
  }
  if (p < last && *p == '.') {
    ++p;
    if (!digits()) return false;
  }
  if (p < last && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p < last && (*p == '+' || *p == '-')) ++p;
    if (!digits()) return false;
  }
  return p == last;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) throw FormatError("JSON: trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw FormatError("JSON: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_lit(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    Value v;
    if (c == '{') {
      v.type = Value::Type::kObject;
      ++pos_;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.object[std::move(key)] = parse_value();
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.type = Value::Type::kArray;
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.array.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = Value::Type::kString;
      v.str = parse_string();
      return v;
    }
    if (consume_lit("true")) {
      v.type = Value::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_lit("false")) {
      v.type = Value::Type::kBool;
      v.boolean = false;
      return v;
    }
    if (consume_lit("null")) return v;
    // number
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("unexpected character");
    // The whole token must be one number: "1-2" or "1.2.3" is malformed,
    // not a prefix followed by junk.
    const char* first = s_.data() + start;
    const char* last = s_.data() + pos_;
    if (!is_json_number(first, last)) fail("malformed number");
    const auto [end, ec] = std::from_chars(first, last, v.number);
    if (ec != std::errc() || end != last) fail("malformed number");
    v.type = Value::Type::kNumber;
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      // JSON strings carry control characters only as escapes.
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          // Exactly four hex digits: no sign, space or short digit run.
          unsigned code = 0;
          const char* first = s_.data() + pos_;
          const auto [end, ec] = std::from_chars(first, first + 4, code, 16);
          if (ec != std::errc() || end != first + 4) fail("\\u escape needs four hex digits");
          pos_ += 4;
          // The writer only escapes control characters; anything in the
          // BMP below 0x80 round-trips, the rest degrades to '?'.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse_document(); }

}  // namespace fghp::json
