// hmac.h — HMAC (RFC 2104) and HKDF (RFC 5869) over any hash with the
// update/finish interface used in this library.
//
// The protocol layer derives session keys with HKDF and authenticates
// transcripts with HMAC; the HMAC-DRBG in rng/ also builds on this.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace medsec::hash {

/// Generic HMAC over hash H (H must expose kDigestSize, kBlockSize, Digest,
/// update(), finish()).
template <typename H>
class Hmac {
 public:
  using Digest = typename H::Digest;
  static constexpr std::size_t kDigestSize = H::kDigestSize;

  explicit Hmac(std::span<const std::uint8_t> key) {
    std::array<std::uint8_t, H::kBlockSize> k{};
    if (key.size() > H::kBlockSize) {
      const auto d = H::digest(key);
      std::copy(d.begin(), d.end(), k.begin());
    } else {
      std::copy(key.begin(), key.end(), k.begin());
    }
    std::array<std::uint8_t, H::kBlockSize> ipad, opad;
    for (std::size_t i = 0; i < H::kBlockSize; ++i) {
      ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
      opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
    }
    inner_key_.update(ipad);
    outer_key_.update(opad);
    reset();
  }

  void reset() { inner_ = inner_key_; }

  void update(std::span<const std::uint8_t> data) { inner_.update(data); }

  /// The tag of the message since construction or the last finish();
  /// then ready for the next message under the same key.
  Digest finish() {
    const auto inner_digest = inner_.finish();
    H outer = outer_key_;
    outer.update(inner_digest);
    reset();
    return outer.finish();
  }

  static Digest mac(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> data) {
    Hmac h(key);
    h.update(data);
    return h.finish();
  }

 private:
  // The states after the ipad and opad blocks: no message re-hashes a pad.
  H inner_key_, outer_key_, inner_;
};

/// HKDF-Extract + HKDF-Expand (RFC 5869).
template <typename H>
std::vector<std::uint8_t> hkdf(std::span<const std::uint8_t> salt,
                               std::span<const std::uint8_t> ikm,
                               std::span<const std::uint8_t> info,
                               std::size_t length) {
  const auto prk = Hmac<H>::mac(salt, ikm);
  std::vector<std::uint8_t> okm;
  okm.reserve(length);
  std::vector<std::uint8_t> t;
  std::uint8_t counter = 1;
  Hmac<H> h(prk);
  while (okm.size() < length) {
    h.update(t);
    h.update(info);
    h.update({&counter, 1});
    const auto block = h.finish();
    t.assign(block.begin(), block.end());
    const std::size_t take = std::min(t.size(), length - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + static_cast<long>(take));
    ++counter;
  }
  return okm;
}

/// Constant-time comparison of equal-length byte strings.
inline bool constant_time_equal(std::span<const std::uint8_t> a,
                                std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace medsec::hash
