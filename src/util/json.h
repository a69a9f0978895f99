#pragma once
// Minimal dependency-free JSON reader/writer — the substrate of the unified
// config API (serving::service_config) and of everything else that wants a
// machine-readable ops surface. Deliberately small: one `value` variant
// (null / bool / finite number / string / array / insertion-ordered object),
// a strict recursive-descent `parse` with line/column errors, and a `dump`
// whose output is deterministic (objects keep insertion order, numbers
// round-trip at full precision) so two equal configs always serialize to
// byte-identical text — the property the config bit-identity checks gate on.
//
// Not supported on purpose: comments, trailing commas, duplicate-key
// tolerance (last-wins would hide config typos; `parse` rejects them) and
// non-finite numbers (JSON has no literal for them; `dump` throws).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mapcq::util::json {

class value;
/// Array payload of a `value`.
using array = std::vector<value>;
/// Object payload: insertion-ordered members (deterministic dumps, stable
/// diffs). Lookup is linear — config objects hold tens of keys, not
/// thousands.
using object = std::vector<std::pair<std::string, value>>;

/// Parse failure, with 1-based line/column of the offending character.
class parse_error : public std::runtime_error {
 public:
  parse_error(const std::string& message, std::size_t line, std::size_t column);
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

/// One JSON value. Cheap to copy for config-sized documents; accessors
/// throw std::runtime_error on kind mismatch (callers wanting typed config
/// errors translate — see serving::config_error).
class value {
 public:
  enum class kind { null, boolean, number, string, array, object };

  value() noexcept : kind_(kind::null) {}
  value(std::nullptr_t) noexcept : kind_(kind::null) {}  // NOLINT(google-explicit-constructor)
  value(bool b) noexcept : kind_(kind::boolean), bool_(b) {}  // NOLINT
  value(double v) : kind_(kind::number), num_(v) {}           // NOLINT
  value(int v) : kind_(kind::number), num_(v) {}              // NOLINT
  value(unsigned v) : value(static_cast<unsigned long long>(v)) {}  // NOLINT
  value(long v) : kind_(kind::number), num_(static_cast<double>(v)) {}                 // NOLINT
  value(unsigned long v) : value(static_cast<unsigned long long>(v)) {}                // NOLINT
  value(long long v) : kind_(kind::number), num_(static_cast<double>(v)) {}            // NOLINT
  /// Unsigned values are kept exactly, all 64 bits (seeds above 2^53).
  value(unsigned long long v)  // NOLINT
      : kind_(kind::number), num_(static_cast<double>(v)), whole_(v), exact_(true) {}
  value(const char* s) : kind_(kind::string), str_(s) {}       // NOLINT
  value(std::string s) : kind_(kind::string), str_(std::move(s)) {}  // NOLINT
  value(array a) : kind_(kind::array), arr_(std::move(a)) {}         // NOLINT
  value(object o) : kind_(kind::object), obj_(std::move(o)) {}       // NOLINT

  [[nodiscard]] kind type() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == kind::null; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == kind::boolean; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == kind::number; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == kind::string; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == kind::array; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == kind::object; }

  /// Checked accessors; throw std::runtime_error naming the expected kind.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// The number as a non-negative integer: an unsigned value or a
  /// whole-number token exactly (all 64 bits), or a whole double up to 2^53;
  /// nullopt for any other number. Throws on a kind mismatch.
  [[nodiscard]] std::optional<std::uint64_t> as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const array& as_array() const;
  [[nodiscard]] const object& as_object() const;
  [[nodiscard]] array& as_array();
  [[nodiscard]] object& as_object();

  /// Object member by key; null when absent or when this is not an object.
  [[nodiscard]] const value* find(std::string_view key) const noexcept;
  /// Object member for writing: inserts a null member when absent. Turns a
  /// null value into an empty object first; throws on other kinds.
  [[nodiscard]] value& at_or_insert(std::string_view key);

  /// Appends a member (building serializers). Does not check duplicates.
  void push_member(std::string key, value v);

  [[nodiscard]] bool operator==(const value& other) const noexcept;

 private:
  kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::uint64_t whole_ = 0;  ///< the exact value when exact_
  bool exact_ = false;
  std::string str_;
  array arr_;
  object obj_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing content
/// rejected). A number token of plain digits that fits in 64 bits is kept
/// exactly. Throws parse_error with line/column on malformed input,
/// duplicate object keys, or nesting beyond 256 levels.
[[nodiscard]] value parse(std::string_view text);

/// Serializes. `indent` = 0 emits the compact one-line form; > 0
/// pretty-prints with that many spaces per level. Exact unsigned values and
/// integral numbers inside +/-2^53 print without a decimal point; other
/// finite numbers round-trip at %.17g. Throws std::runtime_error on
/// non-finite numbers.
[[nodiscard]] std::string dump(const value& v, int indent = 0);

}  // namespace mapcq::util::json
