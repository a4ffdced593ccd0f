#pragma once
// Minimal JSON document model, parser and writer.
//
// Used for the campaign metadata files exchanged between systems in the
// between-platform protocol (paper Fig. 3).  Numbers round-trip exactly:
// doubles are emitted with enough digits (%.17g) that parse(write(x)) == x
// bit-for-bit for all finite values.  Non-finite floating-point data is the
// metadata layer's concern (it stores raw IEEE bits as strings).

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gpudiff::support {

class Json;
using JsonArray = std::vector<Json>;
// std::map keeps keys sorted -> deterministic serialization for golden tests.
using JsonObject = std::map<std::string, Json>;

/// Error thrown by the parser on malformed input.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// A JSON value: null, bool, number (double or int64), string, array, object.
class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  Json() noexcept : type_(Type::Null) {}
  Json(std::nullptr_t) noexcept : type_(Type::Null) {}
  Json(bool b) noexcept : type_(Type::Bool), bool_(b) {}
  Json(int v) noexcept : type_(Type::Int), int_(v) {}
  Json(long v) noexcept : type_(Type::Int), int_(v) {}
  Json(long long v) noexcept : type_(Type::Int), int_(v) {}
  Json(unsigned v) noexcept : type_(Type::Int), int_(v) {}
  Json(unsigned long v) : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
  Json(unsigned long long v) : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) noexcept : type_(Type::Double), double_(v) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::String), str_(s) {}
  Json(JsonArray a) : type_(Type::Array), arr_(std::move(a)) {}
  Json(JsonObject o) : type_(Type::Object), obj_(std::move(o)) {}

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::Null; }
  bool is_bool() const noexcept { return type_ == Type::Bool; }
  bool is_number() const noexcept { return type_ == Type::Int || type_ == Type::Double; }
  bool is_string() const noexcept { return type_ == Type::String; }
  bool is_array() const noexcept { return type_ == Type::Array; }
  bool is_object() const noexcept { return type_ == Type::Object; }

  bool as_bool() const { expect(Type::Bool); return bool_; }
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const { expect(Type::String); return str_; }
  const JsonArray& as_array() const { expect(Type::Array); return arr_; }
  JsonArray& as_array() { expect(Type::Array); return arr_; }
  const JsonObject& as_object() const { expect(Type::Object); return obj_; }
  JsonObject& as_object() { expect(Type::Object); return obj_; }

  /// Object access; inserts a null member if missing (like std::map).
  Json& operator[](const std::string& key) { expect(Type::Object); return obj_[key]; }
  /// Const object access; throws if absent.
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const {
    return type_ == Type::Object && obj_.count(key) > 0;
  }
  /// Returns at(key) or `fallback` if the member is absent.
  const Json& get_or(const std::string& key, const Json& fallback) const;

  void push_back(Json v) { expect(Type::Array); arr_.push_back(std::move(v)); }
  std::size_t size() const;

  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

  /// Serialize. `indent` < 0 means compact one-line output.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document (throws JsonParseError).
  static Json parse(std::string_view text);

 private:
  void expect(Type t) const {
    if (type_ != t) throw std::runtime_error("json: wrong type access");
  }
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

/// Read an entire file into a string (throws on I/O failure).
std::string read_file(const std::string& path);
/// Write a string to a file atomically enough for our purposes.
void write_file(const std::string& path, std::string_view contents);
/// Crash-safe write: the contents land in `path + temp_suffix` first and
/// are renamed over `path` only after the write completes, so readers
/// never observe a torn file (done files, reports and store documents all
/// need this: a kill mid write leaves the previous file intact).  When
/// several processes may write the same path concurrently (the scheduler's
/// at-least-once duplicate publishes), each must pass its own unique
/// temp_suffix or the racing writers can tear each other's temp file.
void write_file_atomic(const std::string& path, std::string_view contents,
                       const std::string& temp_suffix = ".tmp");

}  // namespace gpudiff::support
