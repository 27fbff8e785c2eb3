// present.h — PRESENT-80/128 (Bogdanov et al., CHES 2007).
//
// The canonical ultra-lightweight block cipher for exactly the device class
// the paper targets (~1.5 kGE). 64-bit block, 80- or 128-bit key, 31
// rounds of S-box + bit permutation.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "ciphers/block_cipher.h"

namespace medsec::ciphers {

class Present final : public BlockCipher {
 public:
  static constexpr std::size_t kBlockBytes = 8;
  static constexpr int kRounds = 31;

  /// key is 10 bytes (PRESENT-80) or 16 bytes (PRESENT-128), big-endian as
  /// in the specification's test vectors.
  explicit Present(std::span<const std::uint8_t> key);

  std::size_t block_bytes() const override { return kBlockBytes; }

  void encrypt_block(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const override;

 private:
  std::array<std::uint64_t, kRounds + 1> round_key_{};
};

/// PRESENT-80 as a protocol suite: 10-byte keys, 8-byte blocks.
extern const CipherSuite kPresent80Suite;

}  // namespace medsec::ciphers
