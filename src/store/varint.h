// LEB128 varint and zigzag coding for the archive block codec.
//
// The archive encodes event columns as deltas: epochs are near-sorted and
// object ids cluster by packaging level, so successive differences are small
// and a 64-bit value usually fits in one or two bytes (the Sparkey /
// Simple8b-style integer-coding idiom). Deltas can be negative, so signed
// values ride through the zigzag map first.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace spire {

/// Maximum encoded size of one 64-bit varint.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Appends `value` as a little-endian base-128 varint.
inline void PutVarint64(std::uint64_t value, std::vector<std::uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<std::uint8_t>(value));
}

namespace varint_internal {

/// One varint read by the loop below: the value and the offset past it,
/// or the Corruption message when `error` is set.
struct SlowRead {
  std::uint64_t value = 0;
  std::size_t end = 0;
  const char* error = nullptr;
};

/// The one varint decode loop, for what ReadVarint64's inline path leaves.
/// `kStrict` adds the canonicality checks (see ReadVarint64); without it
/// only the length bound applies (SkipVarint64). Out of line and by value,
/// so a caller's offset can live in a register.
template <bool kStrict>
[[gnu::noinline]] SlowRead ReadVarint64Slow(const std::uint8_t* in,
                                            std::size_t size,
                                            std::size_t offset) {
  SlowRead read;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (offset >= size) {
      read.error = "truncated varint";
      return read;
    }
    const std::uint8_t byte = in[offset++];
    if (kStrict && i == kMaxVarintBytes - 1 && byte > 1) {
      read.error = "varint overflows 64 bits";
      return read;
    }
    read.value |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      if (kStrict && byte == 0 && i > 0) {
        read.error = "non-canonical varint padding";
        return read;
      }
      read.end = offset;
      return read;
    }
  }
  read.error = "varint longer than 10 bytes";
  return read;
}

}  // namespace varint_internal

/// Decodes one varint from `in[*offset, size)` into `*value`, advancing
/// `*offset` past the encoding; on failure returns false and points
/// `*error` at the Corruption message. Strict: every decodable byte
/// sequence is the unique encoding PutVarint64 produces. Fails on
///   - truncation or an encoding longer than 10 bytes;
///   - a 10th byte carrying bits beyond bit 63 (the 9 prior bytes supply 63
///     bits, so only its lowest bit is payload — anything else would be
///     silently shifted out);
///   - non-canonical padding (a trailing 0x00 continuation target, e.g.
///     0x80 0x00 for zero): the final byte of a multi-byte encoding must be
///     nonzero, or a shorter encoding of the same value exists.
/// With `kStrict` false (SkipVarint64) only the length bound applies.
/// A one-byte encoding is read inline; anything longer, and every
/// malformed encoding, takes the shared loop, which also names the failure.
template <bool kStrict = true>
inline bool ReadVarint64(const std::uint8_t* in, std::size_t size,
                         std::size_t* offset, std::uint64_t* value,
                         const char** error) {
  const std::size_t pos = *offset;
  if (pos < size && in[pos] < 0x80) [[likely]] {
    *value = in[pos];
    *offset = pos + 1;
    return true;
  }
  const varint_internal::SlowRead read =
      varint_internal::ReadVarint64Slow<kStrict>(in, size, pos);
  if (read.error != nullptr) {
    *error = read.error;
    return false;
  }
  *value = read.value;
  *offset = read.end;
  return true;
}

/// ReadVarint64 with the failure as a Status (off the hot paths).
inline Result<std::uint64_t> GetVarint64(const std::uint8_t* in,
                                         std::size_t size,
                                         std::size_t* offset) {
  std::uint64_t value = 0;
  const char* error = nullptr;
  if (!ReadVarint64(in, size, offset, &value, &error)) {
    return Status::Corruption(error);
  }
  return value;
}

inline Result<std::uint64_t> GetVarint64(const std::vector<std::uint8_t>& in,
                                         std::size_t* offset) {
  return GetVarint64(in.data(), in.size(), offset);
}

/// Advances `*offset` past one varint without decoding it (column skip):
/// ReadVarint64 with the same length bound, but not the canonicality
/// checks — the full-decode path is the validator.
inline Status SkipVarint64(const std::uint8_t* in, std::size_t size,
                           std::size_t* offset) {
  std::uint64_t ignored = 0;
  const char* error = nullptr;
  if (!ReadVarint64</*kStrict=*/false>(in, size, offset, &ignored, &error)) {
    return Status::Corruption(error);
  }
  return Status::OK();
}

/// Maps signed to unsigned so small-magnitude values (either sign) encode
/// short: 0,-1,1,-2,... -> 0,1,2,3,...
inline std::uint64_t ZigzagEncode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

/// Inverse of ZigzagEncode.
inline std::int64_t ZigzagDecode(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

}  // namespace spire
