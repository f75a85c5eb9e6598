// The one JSON writer behind every BENCH_*.json: an object assembled
// key by key in call order (doubles as %.6f), arrays of values that are
// already JSON, and the env-knob-selected output file.
#pragma once

#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "common/table.h"

namespace secddr::bench {

class JsonObject {
 public:
  void field(const char* key, double v) { add(key, TablePrinter::num(v, 6)); }
  template <std::integral T>
  void field(const char* key, T v) {
    add(key, std::to_string(v));
  }
  void field(const char* key, bool v) { add(key, v ? "true" : "false"); }
  void field(const char* key, const std::string& v) {
    add(key, "\"" + v + "\"");
  }
  /// Without this overload a string literal would convert to bool.
  void field(const char* key, const char* v) { field(key, std::string(v)); }
  /// `json` is already JSON (a nested object or an array).
  void raw(const char* key, const std::string& json) { add(key, json); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void add(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += v;
  }

  std::string body_;
};

/// `[a,b,...]`: integers in decimal, strings taken as already-JSON values.
template <typename T>
std::string json_array(const std::vector<T>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ",";
    if constexpr (std::is_integral_v<T>)
      out += std::to_string(items[i]);
    else
      out += items[i];
  }
  return out + "]";
}

/// Writes `json` and a newline to the file env knob `knob` names
/// (`fallback` when unset; an empty value disables the file).
inline void write_json(const char* knob, const char* fallback,
                       const std::string& json) {
  const char* env = std::getenv(knob);
  const std::string path = env ? env : fallback;
  if (path.empty()) return;
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "WARN: could not write %s\n", path.c_str());
  }
}

}  // namespace secddr::bench
