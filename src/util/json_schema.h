#pragma once
// Declarative JSON binding for plain option structs: each struct's fields
// are listed once, and reading, writing and range checks all follow from
// that one list ("describe once, visit three times").
//
// A schema type `S` supplies three static members:
//   * describe(v, o): one overload per option struct, calling
//     v.field(key, o.member, extras...) once per field, in JSON order;
//   * fail(path, message): [[noreturn]], raises the schema's error;
//   * checked_on_read<T>: whether a struct of type T is range-checked as
//     soon as it is read (true) or only with the struct holding it (false).
// binding<S>::read, write and check walk describe() with a reader, a
// writer or a checker.
//
// A field's kind follows from its member's type:
//   bool, double, std::string       a JSON boolean, number, string
//   an unsigned integer             a whole JSON number: a digits-only token
//                                   exact to 64 bits, or a double up to 2^53
//   std::chrono::milliseconds       the same, counting milliseconds
//   an enum                         a string from the field's name table
//   a struct with a describe()      a nested object
//   std::vector<T>                  an array of T
//   std::unordered_map<string, T>   an object of name -> T, written sorted
//   std::optional<T>                a T or null
// A field's extras are, first, the name table of an enum (an array of
// {name, value} pairs) or the noun a container's shape error names ("DVFS
// levels"), then any number of checks: callables (const member&, const
// std::string& path) that call S::fail when the value is out of range.
//
// Order of faults. Reading visits fields in schema order, not document
// order, and the first kind error ends it; a nested struct is read whole
// (and range-checked when checked_on_read) when its field is reached. Then
// keys no field consumed fail as "unknown key", in document order. Then,
// when checked_on_read, the struct's range checks run. Checking runs a
// field's own checks before the checks of what it holds.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/json.h"

namespace mapcq::util::json_schema {

/// The dotted path of `key` under `path` ("ga.island"; "workers" at the root).
inline std::string join(const std::string& path, std::string_view key) {
  return path.empty() ? std::string(key) : path + "." + std::string(key);
}

/// The path of element `i` of the array at `path` ("scenario.residents[0]").
inline std::string element(const std::string& path, std::size_t i) {
  return path + "[" + std::to_string(i) + "]";
}

template <class T, template <class...> class Tpl>
inline constexpr bool is_a = false;
template <template <class...> class Tpl, class... A>
inline constexpr bool is_a<Tpl<A...>, Tpl> = true;

/// Option structs: the class types of no other kind.
template <class T>
inline constexpr bool described = std::is_class_v<T> && !std::is_same_v<T, std::string> &&
                                  !std::is_same_v<T, std::chrono::milliseconds> &&
                                  !is_a<T, std::vector> && !is_a<T, std::unordered_map> &&
                                  !is_a<T, std::optional>;

template <class S>
class binding {
 public:
  /// Reads the object `v` into `out`, starting from its current values.
  template <class T>
  static void read(const json::value& v, T& out, const std::string& path) {
    if (!v.is_object()) S::fail(path.empty() ? "<config>" : path, "expected a JSON object");
    reader r{&v.as_object(), path, std::vector<bool>(v.as_object().size())};
    S::describe(r, out);
    r.finish();
    if constexpr (S::template checked_on_read<T>) check(out, path);
  }

  /// Every field of `in`, in schema order.
  template <class T>
  [[nodiscard]] static json::value write(const T& in) {
    writer w;
    S::describe(w, in);
    return std::move(w.obj);
  }

  /// Runs every range check of `in`, in schema order.
  template <class T>
  static void check(const T& in, const std::string& path) {
    checker c{path};
    S::describe(c, in);
  }

 private:
  /// Consumes the members of one JSON object; finish() rejects the rest.
  struct reader {
    const json::object* obj;
    std::string path;
    std::vector<bool> consumed;

    template <class T, class... X>
    void field(std::string_view key, T& out, const X&... x) {
      for (std::size_t i = 0; i < obj->size(); ++i) {
        if ((*obj)[i].first == key) {
          consumed[i] = true;
          get((*obj)[i].second, out, join(path, key), x...);
          return;
        }
      }
    }

    void finish() const {
      for (std::size_t i = 0; i < obj->size(); ++i)
        if (!consumed[i]) S::fail(join(path, (*obj)[i].first), "unknown key");
    }
  };

  struct writer {
    json::value obj{json::object{}};

    template <class T, class... X>
    void field(std::string_view key, const T& in, const X&... x) {
      obj.push_member(std::string(key), put(in, x...));
    }
  };

  struct checker {
    std::string path;

    template <class T, class... X>
    void field(std::string_view key, const T& in, const X&... x) {
      verify(in, join(path, key), x...);
    }
  };

  /// JSON -> member.
  template <class T, class... X>
  static void get(const json::value& v, T& out, const std::string& path, const X&... x) {
    if constexpr (std::is_same_v<T, bool>) {
      if (!v.is_bool()) S::fail(path, "expected a boolean");
      out = v.as_bool();
    } else if constexpr (std::is_same_v<T, double>) {
      if (!v.is_number()) S::fail(path, "expected a number");
      out = v.as_number();
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!v.is_string()) S::fail(path, "expected a string");
      out = v.as_string();
    } else if constexpr (std::is_unsigned_v<T>) {
      const std::optional<std::uint64_t> n = v.is_number() ? v.as_uint() : std::nullopt;
      if (!n || *n > std::numeric_limits<T>::max())
        S::fail(path, "expected a non-negative integer");
      out = static_cast<T>(*n);
    } else if constexpr (std::is_same_v<T, std::chrono::milliseconds>) {
      std::uint64_t ms = 0;
      get(v, ms, path);
      if (ms > static_cast<std::uint64_t>(std::chrono::milliseconds::max().count()))
        S::fail(path, "expected a non-negative integer");
      out = std::chrono::milliseconds(ms);
    } else if constexpr (std::is_enum_v<T>) {
      if (!v.is_string()) S::fail(path, "expected a string");
      std::string expected;
      for (const auto& [name, e] : std::get<0>(std::tie(x...))) {
        if (v.as_string() == name) {
          out = e;
          return;
        }
        expected += std::string(expected.empty() ? "\"" : " | \"") + name + '"';
      }
      S::fail(path, "unknown value \"" + v.as_string() + "\" (expected " + expected + ")");
    } else if constexpr (is_a<T, std::vector>) {
      if (!v.is_array())
        S::fail(path, std::string("expected an array of ") + std::get<0>(std::tie(x...)));
      out.clear();
      for (std::size_t i = 0; i < v.as_array().size(); ++i)
        get(v.as_array()[i], out.emplace_back(), element(path, i));
    } else if constexpr (is_a<T, std::unordered_map>) {
      if (!v.is_object())
        S::fail(path, std::string("expected an object of ") + std::get<0>(std::tie(x...)));
      out.clear();
      for (const auto& [key, e] : v.as_object()) get(e, out[key], join(path, key));
    } else if constexpr (is_a<T, std::optional>) {
      if (v.is_null()) {
        out.reset();
      } else {
        get(v, out.emplace(), path);
      }
    } else {
      read(v, out, path);
    }
  }

  /// Member -> JSON.
  template <class T, class... X>
  static json::value put(const T& in, const X&... x) {
    if constexpr (std::is_same_v<T, std::chrono::milliseconds>) {
      return json::value{static_cast<std::uint64_t>(in.count())};
    } else if constexpr (std::is_enum_v<T>) {
      for (const auto& [name, e] : std::get<0>(std::tie(x...)))
        if (e == in) return json::value{name};
      return json::value{"?"};
    } else if constexpr (is_a<T, std::vector>) {
      json::array out;
      for (const auto& e : in) out.push_back(put(e));
      return json::value{std::move(out)};
    } else if constexpr (is_a<T, std::unordered_map>) {
      // Sorted, so equal structs always write byte-identical text.
      std::vector<std::pair<std::string, typename T::mapped_type>> sorted{in.begin(), in.end()};
      std::sort(sorted.begin(), sorted.end());
      json::value out{json::object{}};
      for (const auto& [key, e] : sorted) out.push_member(key, put(e));
      return out;
    } else if constexpr (is_a<T, std::optional>) {
      return in ? put(*in) : json::value{};
    } else if constexpr (described<T>) {
      return write(in);
    } else {
      return json::value{in};
    }
  }

  /// The member's own checks `x`, then those of what it holds.
  template <class T, class... X>
  static void verify(const T& in, const std::string& path, const X&... x) {
    (run(x, in, path), ...);
    if constexpr (is_a<T, std::vector>) {
      for (std::size_t i = 0; i < in.size(); ++i) verify(in[i], element(path, i));
    } else if constexpr (is_a<T, std::optional>) {
      if (in) verify(*in, path);
    } else if constexpr (described<T>) {
      check(in, path);
    }
  }

  /// Runs `c` if it is a check of `in` (the extras also hold name tables
  /// and nouns).
  template <class C, class T>
  static void run(const C& c, const T& in, const std::string& path) {
    if constexpr (std::is_invocable_v<const C&, const T&, const std::string&>) c(in, path);
  }
};

}  // namespace mapcq::util::json_schema
