#include "ciphers/modes.h"

#include <stdexcept>

#include "hash/hmac.h"  // constant_time_equal

namespace medsec::ciphers {

namespace {

/// Doubling in GF(2^64) / GF(2^128) for the CMAC subkeys.
void gf_double(std::vector<std::uint8_t>& block) {
  const std::uint8_t rb = block.size() == 8 ? 0x1B : 0x87;
  const bool carry = (block[0] & 0x80) != 0;
  for (std::size_t i = 0; i + 1 < block.size(); ++i)
    block[i] = static_cast<std::uint8_t>((block[i] << 1) |
                                         (block[i + 1] >> 7));
  block.back() = static_cast<std::uint8_t>(block.back() << 1);
  if (carry) block.back() ^= rb;
}

}  // namespace

std::vector<std::uint8_t> ctr_crypt(const BlockCipher& cipher,
                                    std::span<const std::uint8_t> nonce,
                                    std::span<const std::uint8_t> data) {
  const std::size_t bs = cipher.block_bytes();
  if (nonce.size() != bs - 4)
    throw std::invalid_argument("ctr_crypt: nonce must be block-4 bytes");
  std::vector<std::uint8_t> counter_block(bs, 0);
  std::copy(nonce.begin(), nonce.end(), counter_block.begin());
  std::vector<std::uint8_t> keystream(bs, 0);
  std::vector<std::uint8_t> out(data.begin(), data.end());
  std::uint32_t ctr = 0;
  for (std::size_t off = 0; off < out.size(); off += bs) {
    for (int i = 0; i < 4; ++i)
      counter_block[bs - 4 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(ctr >> (24 - 8 * i));
    cipher.encrypt_block(counter_block, keystream);
    const std::size_t n = std::min(bs, out.size() - off);
    for (std::size_t i = 0; i < n; ++i) out[off + i] ^= keystream[i];
    ++ctr;
  }
  return out;
}

std::vector<std::uint8_t> cmac(const BlockCipher& cipher,
                               std::span<const std::uint8_t> data) {
  const std::size_t bs = cipher.block_bytes();
  if (bs != 8 && bs != 16)
    throw std::invalid_argument("cmac: unsupported block size");

  // Subkeys K1, K2 from E_K(0).
  std::vector<std::uint8_t> l(bs, 0);
  cipher.encrypt_block(l, l);
  std::vector<std::uint8_t> k1 = l;
  gf_double(k1);
  std::vector<std::uint8_t> k2 = k1;
  gf_double(k2);

  const std::size_t nblocks =
      data.empty() ? 1 : (data.size() + bs - 1) / bs;
  const bool complete = !data.empty() && data.size() % bs == 0;

  std::vector<std::uint8_t> x(bs, 0);
  std::vector<std::uint8_t> block(bs, 0);
  for (std::size_t b = 0; b + 1 < nblocks; ++b) {
    for (std::size_t i = 0; i < bs; ++i) x[i] ^= data[b * bs + i];
    cipher.encrypt_block(x, x);
  }
  // Last block: pad and mix the appropriate subkey.
  std::fill(block.begin(), block.end(), 0);
  const std::size_t last_off = (nblocks - 1) * bs;
  const std::size_t last_len = data.size() - last_off;
  std::copy(data.begin() + static_cast<long>(last_off), data.end(),
            block.begin());
  if (!complete) block[last_len] = 0x80;
  const auto& subkey = complete ? k1 : k2;
  for (std::size_t i = 0; i < bs; ++i) x[i] ^= block[i] ^ subkey[i];
  cipher.encrypt_block(x, x);
  return x;
}

AeadResult encrypt_then_mac(const BlockCipher& enc_cipher,
                            const BlockCipher& mac_cipher,
                            std::span<const std::uint8_t> nonce,
                            std::span<const std::uint8_t> plaintext) {
  AeadResult r;
  r.ciphertext = ctr_crypt(enc_cipher, nonce, plaintext);
  std::vector<std::uint8_t> mac_input(nonce.begin(), nonce.end());
  mac_input.insert(mac_input.end(), r.ciphertext.begin(), r.ciphertext.end());
  r.tag = cmac(mac_cipher, mac_input);
  return r;
}

bool decrypt_then_verify(const BlockCipher& enc_cipher,
                         const BlockCipher& mac_cipher,
                         std::span<const std::uint8_t> nonce,
                         std::span<const std::uint8_t> ciphertext,
                         std::span<const std::uint8_t> tag,
                         std::vector<std::uint8_t>& plaintext_out) {
  std::vector<std::uint8_t> mac_input(nonce.begin(), nonce.end());
  mac_input.insert(mac_input.end(), ciphertext.begin(), ciphertext.end());
  const auto expected = cmac(mac_cipher, mac_input);
  if (!hash::constant_time_equal(expected, tag)) return false;
  plaintext_out = ctr_crypt(enc_cipher, nonce, ciphertext);
  return true;
}

}  // namespace medsec::ciphers
