// Minimal JSON document model for the observability subsystem.
//
// Everything obs/ emits — Chrome trace events, metrics snapshots, run
// reports — is JSON, and the test suite wants to parse what it wrote back
// in, so this header provides both directions: an insertion-ordered value
// tree with a writer (`dump`) and a small recursive-descent parser
// (`parse`). No third-party dependency; the grammar is plain RFC 8259 minus
// \u surrogate pairs (escapes outside the BMP round-trip as-is).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace srna::obs {

class Json {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  Json() noexcept : kind_(Kind::kNull) {}
  Json(std::nullptr_t) noexcept : kind_(Kind::kNull) {}  // NOLINT(google-explicit-constructor)
  Json(bool v) noexcept : kind_(Kind::kBool), bool_(v) {}  // NOLINT
  Json(std::int64_t v) noexcept : kind_(Kind::kInt), int_(v) {}  // NOLINT
  Json(int v) noexcept : Json(static_cast<std::int64_t>(v)) {}   // NOLINT
  Json(std::uint64_t v) noexcept : kind_(Kind::kUint), uint_(v) {}  // NOLINT
  Json(double v) noexcept : kind_(Kind::kDouble), double_(v) {}  // NOLINT
  Json(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}  // NOLINT
  Json(const char* v) : Json(std::string(v)) {}  // NOLINT

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kInt || kind_ == Kind::kUint || kind_ == Kind::kDouble;
  }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }

  // Accessors (loose: numbers convert between representations; a non-match
  // returns the zero value rather than throwing — reports are diagnostics,
  // not control flow).
  [[nodiscard]] bool as_bool() const noexcept { return kind_ == Kind::kBool && bool_; }
  [[nodiscard]] double as_double() const noexcept;
  [[nodiscard]] std::int64_t as_int() const noexcept;
  [[nodiscard]] std::uint64_t as_uint() const noexcept;
  [[nodiscard]] const std::string& as_string() const noexcept { return string_; }

  // Object interface. `set` replaces an existing key; insertion order is
  // preserved in the output (reports read top-down).
  Json& set(std::string key, Json value);
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  [[nodiscard]] bool contains(std::string_view key) const noexcept { return find(key) != nullptr; }
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const noexcept {
    return members_;
  }

  // Array interface.
  Json& push(Json value);
  [[nodiscard]] const std::vector<Json>& items() const noexcept { return items_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return kind_ == Kind::kObject ? members_.size() : items_.size();
  }

  // Serialization. indent == 0 emits one line; indent > 0 pretty-prints.
  [[nodiscard]] std::string dump(int indent = 0) const;

  // Parsing; std::nullopt on any syntax error, trailing garbage, or objects
  // and arrays nested more than kMaxDepth deep.
  static std::optional<Json> parse(std::string_view text);
  static constexpr int kMaxDepth = 256;

  // Escapes `s` for embedding in a JSON string literal (quotes excluded).
  static std::string escape(std::string_view s);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace srna::obs
