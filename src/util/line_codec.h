#pragma once
// One line codec for the mapcq-*-v1 text formats. Each record type has one
// `describe(io, r)` in its namespace (found by ADL) listing its rows in
// order; `write` walks it with a line_writer and `read` with a line_reader,
// so each row is declared once for both directions (as util/json_schema.h
// does for JSON). Rows: row(key, f...) is `key f1 f2 ...` (a tag is a row
// without fields, an empty key writes none); list(key, v) is `key n` and n
// items; flagged(key, opt) is `key 0|1` and the value if 1; maybe(opt) is a
// one-row value, present if its key comes next; check(ok, what) validates
// on read. Fields: bool (0|1), numbers (doubles %.17g via std::to_chars), a
// string_view literal, a std::string (the rest of the line, verbatim), a
// vector (the rest of the row), sized(v) (`n v1 .. vn`), size_of(v, w...)
// (v.size(); read resizes v, w...), and may_end, where older writers ended
// the row. Reading is strict: a row holds exactly its fields, a number is
// read whole by std::from_chars (inf, nan and subnormals round-trip), a
// count may not exceed the lines left; text after the record is ignored.
// Failures throw std::runtime_error naming the format, line and key.

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

namespace mapcq::util {

/// The whole file at `path`. Throws std::runtime_error when it cannot be read.
[[nodiscard]] std::string read_file(const std::string& path);

/// Replaces the file at `path` with `text`: the one place every text format
/// and the JSON config are written. Throws std::runtime_error on failure.
void write_file(const std::string& path, std::string_view text);

namespace lines {

/// `O` is `T`, const or not: one describe() serves both visitors.
template <class O, class T>
concept is = std::same_as<std::remove_const_t<O>, T>;

struct may_end_t {};
inline constexpr may_end_t may_end;

template <class V>
struct sized {
  explicit sized(V& vec) : v(vec) {}
  V& v;
};

template <class... V>
struct size_of {
  explicit size_of(V&... vecs) : v(vecs...) {}
  std::tuple<V&...> v;
};

template <class T, template <class...> class Tpl>
inline constexpr bool is_a = false;
template <template <class...> class Tpl, class... A>
inline constexpr bool is_a<Tpl<A...>, Tpl> = true;

class line_writer {
 public:
  static constexpr bool reading = false;

  template <class... F>
  void row(std::string_view key, const F&... fields) {
    text += key;
    bare_ = key.empty();
    (put(fields), ...);
    text += '\n';
  }
  template <class T>
  void list(std::string_view key, const std::vector<T>& items) {
    row(key, items.size());
    for (const T& item : items) describe(*this, item);
  }
  template <class T>
  void flagged(std::string_view key, const std::optional<T>& v) {
    row(key, v.has_value());
    maybe(v);
  }
  template <class T>
  void maybe(const std::optional<T>& v) {
    if (v) describe(*this, *v);
  }
  void check(bool, const char*) {}

  std::string text;

 private:
  template <class F>
  void put(const F& f) {
    if constexpr (is_a<F, sized>) {
      put(f.v.size());
      for (const auto& x : f.v) put(x);
    } else if constexpr (is_a<F, size_of>) {
      put(std::get<0>(f.v).size());
    } else if constexpr (is_a<F, std::vector>) {
      for (const auto x : f) put(x);
    } else if constexpr (!std::is_same_v<F, may_end_t>) {
      if (!bare_) text += ' ';
      bare_ = false;
      char buf[32];
      if constexpr (std::is_convertible_v<F, std::string_view>)
        text += f;
      else if constexpr (std::is_same_v<F, bool>)
        text += f ? '1' : '0';
      else if constexpr (std::is_floating_point_v<F>)
        text.append(buf, std::to_chars(buf, buf + 32, f, std::chars_format::general, 17).ptr);
      else
        text.append(buf, std::to_chars(buf, buf + 32, f).ptr);
    }
  }

  bool bare_ = false;  ///< no separator before the next token
};

class line_reader {
 public:
  static constexpr bool reading = true;

  explicit line_reader(std::string_view text);

  template <class... F>
  void row(std::string_view key, F&&... fields) {
    open(key);
    (get(fields), ...);
    if (more()) fail("extra values");
  }
  template <class T>
  void list(std::string_view key, std::vector<T>& items) {
    row(key, size_of(items));
    for (T& item : items) describe(*this, item);
  }
  template <class T>
  void flagged(std::string_view key, std::optional<T>& v) {
    bool present = false;
    row(key, present);
    if (present) describe(*this, v.emplace());
  }
  template <class T>
  void maybe(std::optional<T>& v) {
    key_probe probe;
    T unused{};
    describe(probe, unused);
    if (next_key() == probe.key) describe(*this, v.emplace());
  }
  void check(bool ok, const char* what) {
    if (!ok) fail(what);
  }

 private:
  /// Finds the key of a one-row record.
  struct key_probe {
    std::string_view key;
    template <class... F>
    void row(std::string_view k, const F&...) { key = k; }
  };

  [[noreturn]] void fail(const char* what) const;
  void open(std::string_view key);
  [[nodiscard]] std::string_view next_key() const;

  static bool blank(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'; }
  /// Skips blanks; whether a token is left in the row.
  bool more() {
    while (at_ < row_.size() && blank(row_[at_])) ++at_;
    return at_ < row_.size();
  }
  std::string_view token() {
    const std::size_t start = more() ? at_ : row_.size();
    while (at_ < row_.size() && !blank(row_[at_])) ++at_;
    return row_.substr(start, at_ - start);
  }

  template <class F>
  void get(F& f) {
    using T = std::remove_const_t<F>;
    if (stopped_) return;
    if constexpr (std::is_same_v<T, may_end_t>) {
      stopped_ = !more();
    } else if constexpr (std::is_same_v<T, std::string>) {
      f = row_.substr(std::min(at_ + 1, row_.size()));
      at_ = row_.size();
    } else if constexpr (is_a<T, sized>) {
      std::size_t n = 0;
      get(n);
      if (n > row_.size() - at_) fail("short row");
      f.v.resize(n);
      for (auto& x : f.v) get(x);
    } else if constexpr (is_a<T, size_of>) {
      std::size_t n = 0;
      get(n);
      if (n > lines_left_) fail("count exceeds the lines left");
      std::apply([n](auto&... v) { (v.resize(n), ...); }, f.v);
    } else if constexpr (is_a<T, std::vector>) {
      f.clear();
      for (typename T::value_type x{}; more(); f.push_back(x)) get(x);
    } else {
      const std::string_view t = token();
      if (t.empty()) fail("short row");
      if constexpr (std::is_same_v<T, std::string_view>) {
        if (t != f) fail("unexpected name");
      } else if constexpr (std::is_same_v<T, bool>) {
        if (t != "0" && t != "1") fail("bad flag");
        f = t[0] == '1';
      } else {
        const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), f);
        if (ec != std::errc{} || end != t.data() + t.size()) fail("bad value");
      }
    }
  }

  std::string_view text_;
  std::size_t next_ = 0;        ///< offset of the next line
  std::size_t line_no_ = 0;     ///< number of the current line, from 1
  std::size_t lines_left_ = 0;  ///< lines after the current one
  std::string_view format_;     ///< the first key read, for messages
  std::string_view row_;        ///< the current row
  std::size_t at_ = 0;          ///< read position in row_
  std::string_view key_;
  bool stopped_ = false;  ///< the row ended at may_end
};

/// The text of `record`.
template <class T>
[[nodiscard]] std::string write(const T& record) {
  line_writer w;
  describe(w, record);
  return std::move(w.text);
}

/// The record `text` holds.
template <class T>
[[nodiscard]] T read(std::string_view text) {
  line_reader r{text};
  T record{};
  describe(r, record);
  return record;
}

}  // namespace lines
}  // namespace mapcq::util
