// Strict parsing for SECDDR_* environment knobs, shared by the bench
// harness, the fuzz campaign, fleetd and trace_convert: a malformed
// value names the knob and exits 2, so a typo never runs as a silent 0.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

namespace secddr {

/// All of `s` as a decimal T, or nothing: a leading '-' only for signed
/// T, no whitespace, '+', trailing junk or overflow (strtoul would wrap
/// "-1" to ULONG_MAX and stop at the 'x' in "2x" without complaint).
template <typename T>
std::optional<T> parse_decimal(const char* s) {
  const char* end = s + std::strlen(s);
  T v{};
  const auto [stop, ec] = std::from_chars(s, end, v);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  return v;
}

/// parse_decimal, or "0x"/"0X" followed by nothing but hex digits — the
/// form seeds are usually written in.
template <typename T>
std::optional<T> parse_decimal_or_hex(const char* s) {
  if (s[0] != '0' || (s[1] != 'x' && s[1] != 'X')) return parse_decimal<T>(s);
  const char* digits = s + 2;
  const char* end = digits + std::strlen(digits);
  T v{};
  const auto [stop, ec] = std::from_chars(digits, end, v, 16);
  if (ec != std::errc{} || stop != end || *digits == '-') return std::nullopt;
  return v;
}

/// `s` as a T (0x-hex also accepted when `hex_ok`). Anything else prints
/// "<what>='<s>' is not ..." with T's range and exits 2.
template <typename T>
T parse_or_exit(const char* what, const char* s, bool hex_ok = false) {
  const std::optional<T> v =
      hex_ok ? parse_decimal_or_hex<T>(s) : parse_decimal<T>(s);
  if (!v) {
    std::fprintf(stderr, "%s='%s' is not a decimal%s integer in [%s, %s]\n",
                 what, s, hex_ok ? " or 0x-hex" : "",
                 std::to_string(std::numeric_limits<T>::min()).c_str(),
                 std::to_string(std::numeric_limits<T>::max()).c_str());
    std::exit(2);
  }
  return *v;
}

/// Integer env knob: `fallback` when unset, else parse_or_exit's value.
/// Empty, "abc", "12x", "-1" for an unsigned knob or overflow all exit 2.
template <typename T>
T env_integer(const char* name, T fallback, bool hex_ok = false) {
  const char* s = std::getenv(name);
  return s == nullptr ? fallback : parse_or_exit<T>(name, s, hex_ok);
}

/// 0/1 env knob: `fallback` when unset, else exactly "0" or "1"; any
/// other value ("", "yes", "2") prints "<name>='<s>' is not 0 or 1" and
/// exits 2.
inline bool env_flag(const char* name, bool fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  if (std::strcmp(s, "0") == 0) return false;
  if (std::strcmp(s, "1") == 0) return true;
  std::fprintf(stderr, "%s='%s' is not 0 or 1\n", name, s);
  std::exit(2);
}

}  // namespace secddr
