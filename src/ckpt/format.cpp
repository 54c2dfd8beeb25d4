#include "ckpt/format.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace psanim::ckpt {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE 802.3

// Slice-by-8: row 0 is the classic byte table; row k advances a byte's
// contribution through k further zero bytes, so one step folds 8 input
// bytes with 8 independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrc = make_crc_tables();

// a(x) * b(x) modulo the CRC polynomial, in the reflected bit order (bit 31
// is x^0). Horner over a's four bytes, highest powers first: the partial
// product moves up by x^8 with one byte-table lookup, then takes that byte
// of a times b from b's eight precomputed shifts. Masks instead of
// branches: the bit-serial loop this replaces mispredicted on every other
// bit of a.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::array<std::uint32_t, 8> bx{};  // bx[i] = b * x^i
  for (auto& v : bx) {
    v = b;
    b = (b >> 1) ^ (kPoly & (0u - (b & 1u)));
  }
  std::uint32_t p = 0;
  for (int j = 0; j < 32; j += 8) {
    p = (p >> 8) ^ kCrc[0][p & 0xFFu];  // p * x^8
    const std::uint32_t byte = (a >> j) & 0xFFu;  // x^(24-j) .. x^(31-j)
    for (int i = 0; i < 8; ++i) p ^= bx[i] & (0u - ((byte >> (7 - i)) & 1u));
  }
  return p;
}

// kX2n[n] = x^(2^n) modulo the CRC polynomial.
constexpr std::array<std::uint32_t, 32> make_x2n_table() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  t[0] = p;
  for (std::size_t n = 1; n < 32; ++n) t[n] = p = multmodp(p, p);
  return t;
}

constexpr auto kX2n = make_x2n_table();

// kX8n[j][v] = x^(8 v 256^j): the shift past v * 256^j zero bytes, so a
// length below 4 GiB costs one product per nonzero byte of it.
using ShiftTables = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ShiftTables make_x8n_tables() {
  ShiftTables t{};
  std::uint32_t step = 1u << 23;  // x^8
  for (auto& row : t) {
    row[0] = 1u << 31;  // x^0
    for (std::size_t v = 1; v < 256; ++v) row[v] = multmodp(row[v - 1], step);
    step = multmodp(row[255], step);  // x^(8 256^(j+1))
  }
  return t;
}

constexpr ShiftTables kX8n = make_x8n_tables();

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes, std::uint32_t prev) {
  // The 8-byte step reads its words in the image's (little-endian) order.
  static_assert(std::endian::native == std::endian::little);
  std::uint32_t c = ~prev;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
        kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kCrc[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  // Shift crc_a past len_b bytes (x^(8 len_b)), then add crc_b.
  std::uint32_t shift = kX8n[0][len_b & 0xFFu];
  len_b >>= 8;
  for (std::size_t j = 1; j < 4 && len_b != 0; ++j, len_b >>= 8) {
    if (len_b & 0xFFu) shift = multmodp(kX8n[j][len_b & 0xFFu], shift);
  }
  // Lengths of 4 GiB and more: bit n of the rest is x^(2^(n + 35)).
  for (std::size_t k = 35; len_b != 0; len_b >>= 1, ++k) {
    if (len_b & 1u) shift = multmodp(kX2n[k & 31], shift);
  }
  return multmodp(shift, crc_a) ^ crc_b;
}

}  // namespace psanim::ckpt
