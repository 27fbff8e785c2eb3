// sha256.h — SHA-256 (FIPS 180-4). Backs the HMAC-DRBG in rng/ and HKDF key
// derivation in the protocol layer.
//
// On x86-64 hosts whose CPUID reports SHA-NI, the compression runs on
// SHA256RNDS2/MSG1/MSG2; everywhere else it runs the portable C++ rounds.
// The choice is made once per process and yields the same digests.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>

namespace medsec::hash {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  Digest finish();

  static Digest digest(std::span<const std::uint8_t> data) {
    Sha256 h;
    h.update(data);
    return h.finish();
  }

  /// The chaining value a..h.
  using State = std::array<std::uint32_t, 8>;

 private:
  State state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffer_len_ = 0;
};

namespace detail {

/// One SHA-256 compression: folds `n` consecutive 64-byte blocks into
/// `state`.
using Sha256Compress = void (*)(Sha256::State& state,
                                const std::uint8_t* blocks, std::size_t n);

/// The portable compression: the only one on hosts without SHA-NI, and the
/// reference the tests compare the hardware compression against.
void sha256_compress_portable(Sha256::State& state, const std::uint8_t* blocks,
                              std::size_t n);

/// The SHA-NI compression, or nullptr where the build is not x86-64 or
/// CPUID lacks SHA-NI. Sha256 runs it wherever it is available.
Sha256Compress sha256_compress_shani();

}  // namespace detail

}  // namespace medsec::hash
