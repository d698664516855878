#pragma once

// LEB128 varints and a bounds-checked cursor, the primitives under the
// columnar binary bundle format. Every read is range-checked and throws
// ParseError with the offending offset, so the binary readers are safe on
// hostile bytes (the fuzz harness feeds them mutated files directly).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "netcore/error.hpp"

namespace dynaddr::net {

/// Appends `value` to `out` as an unsigned LEB128 varint (7 bits per
/// byte, high bit = continuation).
inline void put_varint(std::string& out, std::uint64_t value) {
    while (value >= 0x80) {
        out.push_back(static_cast<char>(static_cast<std::uint8_t>(value) | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

/// ZigZag maps signed to unsigned so small-magnitude negatives stay
/// short: 0,-1,1,-2,... -> 0,1,2,3,...
inline constexpr std::uint64_t zigzag_encode(std::int64_t value) {
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

inline constexpr std::int64_t zigzag_decode(std::uint64_t value) {
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

inline void put_varint_signed(std::string& out, std::int64_t value) {
    put_varint(out, zigzag_encode(value));
}

/// Appends `value` as 8 little-endian bytes: the fixed-width footer
/// offset in the tail of the columnar containers (DAB2, DCL1).
inline void put_u64_le(std::string& out, std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<char>((value >> shift) & 0xFF));
}

/// Zero-copy reader over an immutable byte buffer. Never reads past the
/// end: a truncated or overlong field throws ParseError naming the
/// offset, which the lenient bundle reader turns into a rejected block.
class ByteCursor {
public:
    explicit ByteCursor(std::string_view data) : data_(data) {}

    [[nodiscard]] std::size_t offset() const { return pos_; }
    [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
    [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

    /// Repositions the cursor; lets the bundle reader jump between the
    /// footer index and individual blocks.
    void seek(std::size_t offset) {
        if (offset > data_.size())
            throw ParseError("binary cursor seek past end (offset " +
                             std::to_string(offset) + " > size " +
                             std::to_string(data_.size()) + ")");
        pos_ = offset;
    }

    std::uint8_t u8() {
        if (pos_ >= data_.size()) throw truncated("u8");
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    std::uint64_t varint() {
        std::uint64_t value = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (pos_ >= data_.size()) throw truncated("varint");
            const auto byte = static_cast<std::uint8_t>(data_[pos_++]);
            value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
            if ((byte & 0x80) == 0) {
                // Reject non-canonical trailing bits that would be shifted
                // out: they mean the encoder and decoder disagree.
                if (shift == 63 && byte > 1)
                    throw ParseError("binary cursor: overlong varint at offset " +
                                     std::to_string(pos_));
                return value;
            }
        }
        throw ParseError("binary cursor: varint longer than 10 bytes at offset " +
                         std::to_string(pos_));
    }

    std::int64_t varint_signed() { return zigzag_decode(varint()); }

    /// The inverse of put_u64_le.
    std::uint64_t u64_le() {
        const std::string_view raw = bytes(8);
        std::uint64_t value = 0;
        for (int i = 7; i >= 0; --i)
            value = (value << 8) | static_cast<std::uint8_t>(raw[i]);
        return value;
    }

    /// A varint that must fit a size_t used for counts/lengths; capped so
    /// hostile lengths cannot drive huge allocations before bounds checks.
    std::size_t length(std::size_t max) {
        const std::uint64_t value = varint();
        if (value > max)
            throw ParseError("binary cursor: length " + std::to_string(value) +
                             " exceeds limit " + std::to_string(max) +
                             " at offset " + std::to_string(pos_));
        return static_cast<std::size_t>(value);
    }

    std::string_view bytes(std::size_t count) {
        if (count > remaining()) throw truncated("bytes");
        const std::string_view view = data_.substr(pos_, count);
        pos_ += count;
        return view;
    }

private:
    [[nodiscard]] ParseError truncated(const char* what) const {
        return ParseError(std::string("binary cursor: truncated ") + what +
                          " at offset " + std::to_string(pos_));
    }

    std::string_view data_;
    std::size_t pos_ = 0;
};

}  // namespace dynaddr::net
