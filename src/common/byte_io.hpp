// Byte-level serialization helpers. Network headers use big-endian
// (network order) accessors; NetAlytics record framing uses little-endian
// for in-host efficiency. All access is bounds-checked at the API level and
// byte-wise (no type punning), per the type-safety profile.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace netalytics::common {

// ---- Big-endian (network order) raw accessors -----------------------------

inline std::uint8_t load_u8(std::span<const std::byte> buf, std::size_t off) {
  return static_cast<std::uint8_t>(buf[off]);
}

inline std::uint16_t load_be16(std::span<const std::byte> buf, std::size_t off) {
  return static_cast<std::uint16_t>((static_cast<std::uint16_t>(buf[off]) << 8) |
                                    static_cast<std::uint16_t>(buf[off + 1]));
}

inline std::uint32_t load_be32(std::span<const std::byte> buf, std::size_t off) {
  return (static_cast<std::uint32_t>(buf[off]) << 24) |
         (static_cast<std::uint32_t>(buf[off + 1]) << 16) |
         (static_cast<std::uint32_t>(buf[off + 2]) << 8) |
         static_cast<std::uint32_t>(buf[off + 3]);
}

inline void store_u8(std::span<std::byte> buf, std::size_t off, std::uint8_t v) {
  buf[off] = static_cast<std::byte>(v);
}

inline void store_be16(std::span<std::byte> buf, std::size_t off, std::uint16_t v) {
  buf[off] = static_cast<std::byte>(v >> 8);
  buf[off + 1] = static_cast<std::byte>(v & 0xff);
}

inline void store_be32(std::span<std::byte> buf, std::size_t off, std::uint32_t v) {
  buf[off] = static_cast<std::byte>(v >> 24);
  buf[off + 1] = static_cast<std::byte>((v >> 16) & 0xff);
  buf[off + 2] = static_cast<std::byte>((v >> 8) & 0xff);
  buf[off + 3] = static_cast<std::byte>(v & 0xff);
}

// ---- Little-endian raw accessors (frame headers) ---------------------------
// ByteWriter/ByteReader below stream little-endian fields; these standalone
// loads let incremental parsers (the federation FrameParser, src/fed/wire.hpp)
// peek a length prefix out of a partially-buffered stream without committing
// a reader position.

inline std::uint16_t load_le16(std::span<const std::byte> buf, std::size_t off) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(buf[off]) |
                                    (static_cast<std::uint16_t>(buf[off + 1]) << 8));
}

inline std::uint32_t load_le32(std::span<const std::byte> buf, std::size_t off) {
  return static_cast<std::uint32_t>(buf[off]) |
         (static_cast<std::uint32_t>(buf[off + 1]) << 8) |
         (static_cast<std::uint32_t>(buf[off + 2]) << 16) |
         (static_cast<std::uint32_t>(buf[off + 3]) << 24);
}

inline std::uint64_t load_le64(std::span<const std::byte> buf, std::size_t off) {
  return static_cast<std::uint64_t>(load_le32(buf, off)) |
         (static_cast<std::uint64_t>(load_le32(buf, off + 4)) << 32);
}

// ---- Record framing (little-endian, length-prefixed) -----------------------

/// Append-only writer over an owned byte vector.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void bytes(std::span<const std::byte> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }

  std::span<const std::byte> view() const noexcept { return buf_; }
  std::vector<std::byte> take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }
  void clear() noexcept { buf_.clear(); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::byte> buf_;
};

/// Bounds-checked reader over a borrowed byte span. Throws on underflow —
/// malformed records are a programming error in this in-process system.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> buf) noexcept : buf_(buf) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t u16() { std::uint16_t v; copy(&v, 2); return v; }
  std::uint32_t u32() { std::uint32_t v; copy(&v, 4); return v; }
  std::uint64_t u64() { std::uint64_t v; copy(&v, 8); return v; }
  double f64() { double v; copy(&v, 8); return v; }
  std::string str() { return std::string(str_view()); }
  /// Like str(), but borrows the bytes: valid while the input buffer is.
  std::string_view str_view() {
    const auto n = u32();
    const auto s = take(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }
  std::vector<std::byte> bytes() {
    const auto v = bytes_view();
    return {v.begin(), v.end()};
  }
  /// Like bytes(), but borrows them: valid while the input buffer is.
  std::span<const std::byte> bytes_view() { return take(u32()); }

  std::size_t remaining() const noexcept { return buf_.size() - pos_; }
  bool done() const noexcept { return remaining() == 0; }

  /// Bound an element count read from the input: `n` elements of at least
  /// `min_item_bytes` encoded bytes each must fit in what is left. Call it
  /// before reserving `n`, so a corrupt count cannot ask for memory the
  /// input could never fill.
  std::size_t count(std::size_t n, std::size_t min_item_bytes) const {
    if (n > remaining() / min_item_bytes) {
      throw std::out_of_range("ByteReader: count exceeds remaining input");
    }
    return n;
  }

 private:
  std::span<const std::byte> take(std::size_t n) {
    if (remaining() < n) throw std::out_of_range("ByteReader: underflow");
    auto s = buf_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  void copy(void* out, std::size_t n) {
    auto s = take(n);
    std::memcpy(out, s.data(), n);
  }

  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
};

inline std::span<const std::byte> as_bytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

inline std::string_view as_string_view(std::span<const std::byte> b) noexcept {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

}  // namespace netalytics::common
