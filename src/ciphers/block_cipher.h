// block_cipher.h — the secret-key primitive behind the protocol layer.
//
// The paper's §4 weighs "protocols based on secret key algorithms, like
// AES" against public-key protocols. Mutual auth and ECIES encrypt (CTR)
// and authenticate (CMAC) with a block cipher they reach through one
// CipherSuite value: AES-128 (aes128.h) on the serving path, PRESENT
// (present.h), the ultra-lightweight cipher of the device class, in the
// energy comparison.
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>

namespace medsec::ciphers {

class BlockCipher {
 public:
  virtual ~BlockCipher() = default;

  virtual std::size_t block_bytes() const = 0;

  /// in and out are block_bytes() long; may alias.
  virtual void encrypt_block(std::span<const std::uint8_t> in,
                             std::span<std::uint8_t> out) const = 0;
};

/// A cipher as the protocols see it: its key and block widths and how to
/// build one under a key. A plain value that machines and their deferred
/// jobs copy, so nothing a caller owns has to outlive them.
struct CipherSuite {
  std::size_t key_bytes;
  std::size_t block_bytes;
  std::unique_ptr<BlockCipher> (*make)(std::span<const std::uint8_t> key);

  /// make(key); throws std::invalid_argument unless key is key_bytes long.
  std::unique_ptr<BlockCipher> build(std::span<const std::uint8_t> key) const {
    if (key.size() != key_bytes)
      throw std::invalid_argument("CipherSuite: key length differs from the "
                                  "suite's key size");
    return make(key);
  }
};

}  // namespace medsec::ciphers
