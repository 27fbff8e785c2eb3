// aes128.h — AES-128 (FIPS 197).
//
// Round keys are expanded once at construction. On x86-64 hosts whose
// CPUID reports AES-NI, the key expansion (AESKEYGENASSIST) and block
// encryption (AESENC/AESENCLAST) run on the instructions; everywhere else
// they run the byte-wise table code, whose S-box lookups are indexed by
// secret bytes. The choice is made once per process and yields the same
// round-key and ciphertext bytes. Only encryption exists: CTR and CMAC
// never run the inverse cipher. This is the host-side reference cipher for
// the protocol layer — the *hardware cost* of an AES core on the modeled
// device comes from hw/gates.h, not from profiling this code.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "ciphers/block_cipher.h"

namespace medsec::ciphers {

class Aes128 final : public BlockCipher {
 public:
  static constexpr std::size_t kBlockBytes = 16;
  static constexpr std::size_t kKeyBytes = 16;
  static constexpr int kRounds = 10;
  /// The 11 round keys in FIPS-197 byte order (w[4r..4r+3], each word's
  /// bytes in order).
  using RoundKeys = std::array<std::array<std::uint8_t, 16>, kRounds + 1>;

  explicit Aes128(std::span<const std::uint8_t> key);

  std::size_t block_bytes() const override { return kBlockBytes; }

  void encrypt_block(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const override;

 private:
  RoundKeys round_key_{};
};

/// AES-128 as a protocol suite: 16-byte keys, 16-byte blocks.
extern const CipherSuite kAes128Suite;

namespace detail {

/// One AES-128 implementation: the FIPS-197 key expansion of a 16-byte
/// key, and the encryption of one 16-byte block (`in` may equal `out`).
struct Aes128Kernel {
  void (*expand_key)(const std::uint8_t* key, Aes128::RoundKeys& rk);
  void (*encrypt_block)(const Aes128::RoundKeys& rk, const std::uint8_t* in,
                        std::uint8_t* out);
};

/// The byte-wise kernel: the only one on hosts without AES-NI, and the
/// reference the tests compare the hardware kernel against.
const Aes128Kernel& aes128_portable();

/// The AES-NI kernel, or nullptr where the build is not x86-64 or CPUID
/// lacks AES-NI. Aes128 runs it wherever it is available.
const Aes128Kernel* aes128_aesni();

}  // namespace detail

}  // namespace medsec::ciphers
