// Byte-exact little-endian serialization primitives for durable
// checkpoints (fleet/checkpoint.h) and the worker-pipe wire format.
//
// Sink appends fixed-width little-endian fields to a growing byte
// buffer; Source reads them back with bounds checking. Every component
// with mutable simulation state exposes save(Sink&) / load(Source&)
// hooks built on these; the container format (magic/version/CRC blocks)
// lives in fleet/checkpoint.h, keeping this layer dependency-free.
//
// Source throws std::runtime_error on underrun or a corrupt element
// count; the checkpoint codec catches and rewraps it with file/offset
// context. Doubles travel as their IEEE-754 bit patterns, so restored
// statistics are bit-identical, not merely close.
//
// Config and stats structs name their members once, in declaration
// order, as a static field list beside the declaration:
//
//   static auto fields(auto& self) { return std::tie(self.a, self.b); }
//
// put/get (serialization) and accumulate (field-wise +=) walk that list,
// and `static_assert(serial::lists_all_fields<T>())` after the struct
// compares it with the aggregate's member count, so a new member that is
// not listed fails the build. The list's return type is deduced, so it
// must be declared before any member function that calls it. Wire
// widths: bool -> b, enum -> u8, 32-bit unsigned -> u32, uint64_t ->
// u64, int64_t -> i64, double -> f64, std::vector -> u64 count then the
// elements; a listed struct recurses into its fields.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace secddr::serial {

class Sink {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Source {
 public:
  Source(const std::uint8_t* data, std::size_t n) : p_(data), end_(data + n) {}
  explicit Source(const std::vector<std::uint8_t>& v)
      : Source(v.data(), v.size()) {}

  std::uint8_t u8() {
    need(1);
    return *p_++;
  }
  bool b() { return u8() != 0; }
  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = static_cast<std::uint32_t>(p_[0]) |
                            static_cast<std::uint32_t>(p_[1]) << 8 |
                            static_cast<std::uint32_t>(p_[2]) << 16 |
                            static_cast<std::uint32_t>(p_[3]) << 24;
    p_ += 4;
    return v;
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | static_cast<std::uint64_t>(u32()) << 32;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  void bytes(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, p_, n);
    p_ += n;
  }

  /// Reads an element count and validates it against the bytes actually
  /// left (each element occupies >= `min_bytes_per_item`), so a corrupt
  /// count can never trigger a pathological allocation.
  std::size_t count(std::size_t min_bytes_per_item = 1) {
    const std::uint64_t n = u64();
    if (min_bytes_per_item > 0 &&
        n > remaining() / min_bytes_per_item)
      throw std::runtime_error("serialized element count exceeds payload");
    return static_cast<std::size_t>(n);
  }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }

 private:
  void need(std::size_t n) const {
    if (remaining() < n)
      throw std::runtime_error("serialized payload truncated");
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// A struct with a field list (see the file comment).
template <typename T>
concept Listed = requires(T& v) { T::fields(v); };

namespace detail {

/// Converts to any member type, so brace-initializing an aggregate with
/// N of these compiles exactly when it has at least N members.
struct AnyMember {
  template <typename T>
  operator T() const;
};

template <typename T, typename... Probe>
consteval std::size_t member_count() {
  if constexpr (requires { T{Probe{}..., AnyMember{}}; })
    return member_count<T, Probe..., AnyMember>();
  else
    return sizeof...(Probe);
}

template <typename T>
inline constexpr bool is_vector = false;
template <typename T, typename A>
inline constexpr bool is_vector<std::vector<T, A>> = true;

template <typename T>
inline constexpr bool is_u32 =
    std::is_unsigned_v<T> && !std::is_same_v<T, bool> && sizeof(T) == 4;

}  // namespace detail

/// True when T's field list names all but `unlisted` of its members.
template <Listed T>
consteval bool lists_all_fields(std::size_t unlisted = 0) {
  using List = decltype(T::fields(std::declval<T&>()));
  return std::tuple_size_v<List> + unlisted == detail::member_count<T>();
}

template <typename T>
void put(Sink& s, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    s.b(v);
  } else if constexpr (std::is_enum_v<T>) {
    s.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (detail::is_u32<T>) {
    s.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    s.u64(v);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    s.i64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    s.f64(v);
  } else if constexpr (detail::is_vector<T>) {
    s.u64(v.size());
    for (const auto& e : v) put(s, e);
  } else {
    std::apply([&s](const auto&... f) { (put(s, f), ...); }, T::fields(v));
  }
}

/// Bytes put() writes for a default T: the least any T can occupy, which
/// bounds a vector's element count against the bytes left.
template <typename T>
std::size_t min_put_bytes() {
  Sink s;
  put(s, T{});
  return s.size();
}

template <typename T>
void get(Source& s, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = s.b();
  } else if constexpr (std::is_enum_v<T>) {
    v = static_cast<T>(s.u8());
  } else if constexpr (detail::is_u32<T>) {
    v = s.u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = s.u64();
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    v = s.i64();
  } else if constexpr (std::is_same_v<T, double>) {
    v = s.f64();
  } else if constexpr (detail::is_vector<T>) {
    using E = typename T::value_type;
    v.assign(s.count(min_put_bytes<E>()), E{});
    for (E& e : v) get(s, e);
  } else {
    std::apply([&s](auto&... f) { (get(s, f), ...); }, T::fields(v));
  }
}

/// Field-wise `a += b` (per-channel stats aggregation).
template <Listed T>
T& accumulate(T& a, const T& b) {
  std::apply(
      [&b](auto&... x) {
        std::apply([&](const auto&... y) { ((x += y), ...); }, T::fields(b));
      },
      T::fields(a));
  return a;
}

}  // namespace secddr::serial
