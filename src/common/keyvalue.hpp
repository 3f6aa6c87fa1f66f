// Reader for the `key = value` text decks (CFD case files, scenarios):
// one entry per line, '#' starts a comment line, keys and values are
// trimmed. Nothing throws: the first bad number is kept, and Finish()
// reports it, naming the key, as kInvalidArgument; so does a key that no
// caller took.
#pragma once

#include <charconv>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>

#include "common/result.hpp"

namespace xg {

/// `text` as a finite number with no trailing characters, else nullopt.
std::optional<double> ParseFiniteNumber(const std::string& text);

class KeyValueDeck {
 public:
  /// Fails only on a non-comment line without '='.
  static Result<KeyValueDeck> Parse(const std::string& text);

  /// Moves the value of `key` into `out`; false when the key is absent.
  bool TakeString(const std::string& key, std::string& out);

  /// Reads `key` into `out`. An integral `out` takes a decimal integer
  /// exactly, or else any finite number in its range, truncated. False,
  /// with `out` unchanged, when the key is absent or its value is bad.
  template <typename T>
  bool TakeNumber(const std::string& key, T& out) {
    std::string text;
    if (!TakeString(key, text)) return false;
    std::optional<double> v = ParseFiniteNumber(text);
    if constexpr (std::is_integral_v<T>) {
      T exact{};
      const char* end = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), end, exact);
      if (ec == std::errc() && ptr == end) {
        out = exact;
        return true;
      }
      // Casting an out-of-range double is undefined. lo - 1 and hi + 1
      // may round to the limits themselves, which only rejects more.
      const double lo = static_cast<double>(std::numeric_limits<T>::min());
      const double hi = static_cast<double>(std::numeric_limits<T>::max());
      if (v.has_value() && !(*v > lo - 1.0 && *v < hi + 1.0)) v.reset();
    }
    if (!v.has_value()) return Fail(key, text);
    out = static_cast<T>(*v);
    return true;
  }

  /// The first bad number, else the first key nobody took ("unknown
  /// <what> key: ..."), else OK.
  Status Finish(const std::string& what) const;

 private:
  bool Fail(const std::string& key, const std::string& text);

  std::map<std::string, std::string> entries_;
  Status error_;
};

}  // namespace xg
