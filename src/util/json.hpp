// The one JSON module: the streaming writer every document goes through —
// Chrome traces, the metrics registry, the RunReport, bench documents and
// CLI output — and the parser that reads them back.
//
// One spelling for every document:
//  * strings escape '"' and '\' with a backslash and every byte below 0x20
//    as \u00XX; all other bytes (UTF-8 included) pass through unchanged;
//  * integers are written exactly; doubles as the shortest text that reads
//    back to the same bits (std::to_chars); NaN and +-Inf as null, since
//    JSON has no literal for them;
//  * separators are ',' and ':' with no spaces;
//  * a container is either inline or one member per line, the members
//    indented two spaces per enclosing one-member-per-line container;
//  * a finished top-level value ends with '\n'.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace fghp::json {

enum class Layout { kInline, kLines };

/// Streaming writer over an ostream. Calls mirror the document: begin/end
/// a container, key() before each object member's value. The writer places
/// separators, line breaks and indentation; it does not check that calls
/// nest correctly.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  Writer& begin_object(Layout layout = Layout::kInline);
  Writer& end_object();
  Writer& begin_array(Layout layout = Layout::kInline);
  Writer& end_array();

  /// Names the next value written inside an object.
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(double v);
  template <std::integral T>
  Writer& value(T v) {
    if constexpr (std::is_same_v<T, bool>) {
      return literal(v ? "true" : "false");
    } else {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof buf, v);
      return literal(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
    }
  }
  Writer& null() { return literal("null"); }

  /// key(k) followed by value(v).
  template <class T>
  Writer& member(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  struct Frame {
    bool lines = false;
    bool any = false;  ///< a member has been written
  };

  Writer& open(char bracket, Layout layout);
  Writer& close(char bracket);
  Writer& literal(std::string_view text);
  void quoted(std::string_view s);
  void before_value();
  void after_value();
  void newline(int depth);

  std::ostream& out_;
  std::vector<Frame> stack_;
  int lineDepth_ = 0;  ///< one-member-per-line containers open
  bool afterKey_ = false;
};

/// Writes one document to a file, or to stdout when the path is "-". Throws
/// IoError when the file cannot be opened or written.
void write_file(const std::string& pathOrDash,
                const std::function<void(std::ostream&)>& write);

// ------------------------------------------------------------------ parser --
// Generic value + recursive-descent parser: enough to read back our own
// documents (reports, metrics, traces) for rendering and tests. Numbers are
// doubles; objects are name-sorted maps.

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::map<std::string, Value> object;
  std::vector<Value> array;

  bool has(const std::string& key) const;
  /// Member access; throws FormatError when absent or not an object.
  const Value& at(const std::string& key) const;
  long long as_int() const { return static_cast<long long>(number); }
};

/// Parses one JSON document. Throws FormatError on malformed input.
Value parse(const std::string& text);

}  // namespace fghp::json
