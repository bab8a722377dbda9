// Binary state serialization primitives for checkpoint/restore.
//
// StateWriter/StateReader encode a flat little-endian byte stream:
// fixed-width integers, length-prefixed strings, and 4-byte section tags.
// Each fixed-width field is copied as one block of host bytes, which is
// the little-endian layout on every host this builds for (checked below).
// The format is deliberately boring — no varints, no alignment, no
// back-references — so a round-trip is exactly reproducible and a reader
// failure always means real corruption or version skew, never a parser
// subtlety. Every class that participates in checkpointing exposes
// SaveState(StateWriter&) / LoadState(StateReader&) built on these.
//
// This header is standalone (standard library only) so that util/, sim/,
// core/, and net/ headers can all include it without a dependency cycle;
// the envelope layer (magic/version/CRC, file I/O) lives in
// state/checkpoint.h and links as the bwalloc_state library.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

namespace bwalloc {

static_assert(std::endian::native == std::endian::little,
              "checkpoint fields are copied as host bytes and must be "
              "little-endian");

// Thrown by StateReader on any malformed payload: truncation, a section
// tag mismatch, or an out-of-range scalar. The message names the failure;
// the checkpoint layer wraps it with the source file name.
class StateFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class StateWriter {
 public:
  // 4-character section tag (e.g. "SCH1"); pairs with StateReader::Tag.
  void Tag(const char* tag) { buf_.append(tag, 4); }

  void U8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void Bool(bool v) { U8(v ? 1 : 0); }

  void U32(std::uint32_t v) { Fixed(v); }
  void U64(std::uint64_t v) { Fixed(v); }
  void I64(std::int64_t v) { Fixed(v); }

  void Str(std::string_view s) {
    U64(s.size());
    buf_.append(s.data(), s.size());
  }

  const std::string& bytes() const { return buf_; }

  // Empties the buffer and keeps its capacity, so a writer reused from
  // capture to capture does not regrow its bytes from nothing.
  void Clear() { buf_.clear(); }

 private:
  template <typename T>
  void Fixed(T v) {
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  std::string buf_;
};

class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  void Tag(const char* tag) {
    const std::string_view got = Raw(4);
    if (std::memcmp(got.data(), tag, 4) != 0) {
      throw StateFormatError(
          std::string("state section tag mismatch: expected '") +
          std::string(tag, 4) + "', found '" + std::string(got) + "'");
    }
  }

  std::uint8_t U8() {
    return static_cast<std::uint8_t>(Raw(1)[0]);
  }

  bool Bool() {
    const std::uint8_t v = U8();
    if (v > 1) throw StateFormatError("state bool out of range");
    return v != 0;
  }

  std::uint32_t U32() { return Fixed<std::uint32_t>(); }
  std::uint64_t U64() { return Fixed<std::uint64_t>(); }
  std::int64_t I64() { return Fixed<std::int64_t>(); }

  // U64 with an upper bound, for element counts: a corrupt count must fail
  // here, not as a bad_alloc when the caller resizes a vector to it.
  std::uint64_t Count(std::uint64_t max) {
    const std::uint64_t v = U64();
    if (v > max) throw StateFormatError("state element count out of range");
    return v;
  }

  std::string Str() {
    const std::uint64_t n = Count(remaining());
    return std::string(Raw(n));
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  void ExpectEnd() const {
    if (!AtEnd()) {
      throw StateFormatError("state payload has trailing bytes");
    }
  }

 private:
  template <typename T>
  T Fixed() {
    T v{};
    std::memcpy(&v, Raw(sizeof(T)).data(), sizeof(T));
    return v;
  }

  std::string_view Raw(std::uint64_t n) {
    if (n > remaining()) throw StateFormatError("state payload truncated");
    const std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace bwalloc
