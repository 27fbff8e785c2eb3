#include "ciphers/present.h"

#include <stdexcept>

namespace medsec::ciphers {

namespace {

constexpr std::uint8_t kSbox[16] = {0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD,
                                    0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2};

std::uint64_t load_be64(std::span<const std::uint8_t> in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | in[static_cast<std::size_t>(i)];
  return v;
}

void store_be64(std::uint64_t v, std::span<std::uint8_t> out) {
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

std::uint64_t sbox_layer(std::uint64_t s) {
  std::uint64_t out = 0;
  for (int i = 0; i < 16; ++i)
    out |= static_cast<std::uint64_t>(kSbox[(s >> (4 * i)) & 0xF]) << (4 * i);
  return out;
}

// P(i) = 16*i mod 63 for i < 63, P(63) = 63: bit i of the state moves to
// position P(i).
std::uint64_t perm_layer(std::uint64_t s) {
  std::uint64_t out = 0;
  for (int i = 0; i < 64; ++i) {
    const int p = (i == 63) ? 63 : (16 * i) % 63;
    out |= ((s >> i) & 1u) << p;
  }
  return out;
}

}  // namespace

Present::Present(std::span<const std::uint8_t> key) {
  if (key.size() == 10) {
    // 80-bit key register, big-endian: k79..k0. Keep in two words:
    // hi = k79..k16 (64 bits), lo = k15..k0 (16 bits).
    std::uint64_t hi = 0;
    for (int i = 0; i < 8; ++i) hi = (hi << 8) | key[static_cast<std::size_t>(i)];
    std::uint64_t lo = (std::uint64_t{key[8]} << 8) | key[9];
    for (int round = 1; round <= kRounds + 1; ++round) {
      round_key_[static_cast<std::size_t>(round - 1)] = hi;
      // Treat the register as the 80-bit integer K = hi * 2^16 + lo and
      // rotate left by 61: K' = ((K << 61) | (K >> 19)) mod 2^80.
      const unsigned __int128 K =
          (static_cast<unsigned __int128>(hi) << 16) | lo;
      const unsigned __int128 mask80 = ((static_cast<unsigned __int128>(1) << 80) - 1);
      unsigned __int128 Kp = ((K << 61) | (K >> 19)) & mask80;
      // S-box on the top nibble (bits 79..76).
      const unsigned top = static_cast<unsigned>((Kp >> 76) & 0xF);
      Kp = (Kp & ~(static_cast<unsigned __int128>(0xF) << 76)) |
           (static_cast<unsigned __int128>(kSbox[top]) << 76);
      // XOR round counter into bits 19..15.
      Kp ^= static_cast<unsigned __int128>(round) << 15;
      hi = static_cast<std::uint64_t>(Kp >> 16);
      lo = static_cast<std::uint64_t>(Kp) & 0xFFFF;
    }
  } else if (key.size() == 16) {
    std::uint64_t hi = load_be64(key.first(8));
    std::uint64_t lo = load_be64(key.subspan(8, 8));
    for (int round = 1; round <= kRounds + 1; ++round) {
      round_key_[static_cast<std::size_t>(round - 1)] = hi;
      // 128-bit register rotated left by 61.
      const unsigned __int128 K =
          (static_cast<unsigned __int128>(hi) << 64) | lo;
      unsigned __int128 Kp = (K << 61) | (K >> 67);
      // S-boxes on the top two nibbles (bits 127..120).
      const unsigned n1 = static_cast<unsigned>((Kp >> 124) & 0xF);
      const unsigned n2 = static_cast<unsigned>((Kp >> 120) & 0xF);
      Kp = (Kp & ~(static_cast<unsigned __int128>(0xFF) << 120)) |
           (static_cast<unsigned __int128>(kSbox[n1]) << 124) |
           (static_cast<unsigned __int128>(kSbox[n2]) << 120);
      // XOR round counter into bits 66..62.
      Kp ^= static_cast<unsigned __int128>(round) << 62;
      hi = static_cast<std::uint64_t>(Kp >> 64);
      lo = static_cast<std::uint64_t>(Kp);
    }
  } else {
    throw std::invalid_argument("Present: key must be 10 or 16 bytes");
  }
}

void Present::encrypt_block(std::span<const std::uint8_t> in,
                            std::span<std::uint8_t> out) const {
  std::uint64_t s = load_be64(in);
  for (int round = 0; round < kRounds; ++round) {
    s ^= round_key_[static_cast<std::size_t>(round)];
    s = sbox_layer(s);
    s = perm_layer(s);
  }
  s ^= round_key_[kRounds];
  store_be64(s, out);
}

const CipherSuite kPresent80Suite{
    10, Present::kBlockBytes,
    [](std::span<const std::uint8_t> key) -> std::unique_ptr<BlockCipher> {
      return std::make_unique<Present>(key);
    }};

}  // namespace medsec::ciphers
