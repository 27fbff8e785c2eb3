// modes.h — the block-cipher modes the protocol layer runs: CTR
// encryption, CMAC (OMAC1, RFC 4493 generalized to 64-bit blocks) and
// their encrypt-then-MAC composition. Both run the cipher forward only.
//
// The paper's §4 requires both encryption and data authentication on the
// pacemaker link ("a modification on the ciphertext may also lead to a
// corrupted therapy"); these modes are the machinery that provides them on
// the secret-key side.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ciphers/block_cipher.h"

namespace medsec::ciphers {

/// CTR-mode keystream encryption/decryption (symmetric). The nonce must be
/// block_bytes()-4 long; a 32-bit big-endian counter occupies the tail.
std::vector<std::uint8_t> ctr_crypt(const BlockCipher& cipher,
                                    std::span<const std::uint8_t> nonce,
                                    std::span<const std::uint8_t> data);

/// CMAC (OMAC1). Works for 8- and 16-byte block ciphers (Rb = 0x1B / 0x87).
std::vector<std::uint8_t> cmac(const BlockCipher& cipher,
                               std::span<const std::uint8_t> data);

struct AeadResult {
  std::vector<std::uint8_t> ciphertext;
  std::vector<std::uint8_t> tag;
};

/// Encrypt-then-MAC with a single cipher instance per direction: CTR for
/// confidentiality, CMAC over nonce || ciphertext for integrity.
AeadResult encrypt_then_mac(const BlockCipher& enc_cipher,
                            const BlockCipher& mac_cipher,
                            std::span<const std::uint8_t> nonce,
                            std::span<const std::uint8_t> plaintext);

/// What a tag's energy ledger charges, in cipher blocks, for one
/// encrypt_then_mac of `plaintext_bytes` under a `nonce_bytes` nonce:
/// ceil(p/bb) + 1 for the CTR pass and ceil((n + p)/bb) + 1 for the CMAC
/// (its subkey block plus one per input block). The CTR pass is charged one
/// block beyond its keystream, as the E6 table has always counted it.
constexpr std::size_t encrypt_then_mac_blocks(std::size_t block_bytes,
                                              std::size_t nonce_bytes,
                                              std::size_t plaintext_bytes) {
  const auto pass = [block_bytes](std::size_t bytes) {
    return (bytes + block_bytes - 1) / block_bytes + 1;
  };
  return pass(plaintext_bytes) + pass(nonce_bytes + plaintext_bytes);
}

/// Returns the plaintext, or an empty optional-like flag via bool: on tag
/// mismatch the plaintext is not released.
bool decrypt_then_verify(const BlockCipher& enc_cipher,
                         const BlockCipher& mac_cipher,
                         std::span<const std::uint8_t> nonce,
                         std::span<const std::uint8_t> ciphertext,
                         std::span<const std::uint8_t> tag,
                         std::vector<std::uint8_t>& plaintext_out);

}  // namespace medsec::ciphers
