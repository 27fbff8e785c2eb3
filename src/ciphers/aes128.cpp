#include "ciphers/aes128.h"

#include <algorithm>
#include <stdexcept>

#include "gf2m/arch.h"

namespace medsec::ciphers {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// --- byte-wise kernel ---------------------------------------------------------

void expand_key_portable(const std::uint8_t* key, Aes128::RoundKeys& rk) {
  std::array<std::uint8_t, 176> w{};
  std::copy(key, key + Aes128::kKeyBytes, w.begin());
  std::uint8_t rcon = 1;
  for (std::size_t i = 16; i < w.size(); i += 4) {
    std::uint8_t t[4] = {w[i - 4], w[i - 3], w[i - 2], w[i - 1]};
    if (i % 16 == 0) {
      const std::uint8_t tmp = t[0];
      t[0] = static_cast<std::uint8_t>(kSbox[t[1]] ^ rcon);
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[tmp];
      rcon = xtime(rcon);
    }
    for (int j = 0; j < 4; ++j)
      w[i + static_cast<std::size_t>(j)] =
          static_cast<std::uint8_t>(w[i + static_cast<std::size_t>(j) - 16] ^ t[j]);
  }
  for (int r = 0; r <= Aes128::kRounds; ++r)
    for (int j = 0; j < 16; ++j)
      rk[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)] =
          w[static_cast<std::size_t>(16 * r + j)];
}

void encrypt_block_portable(const Aes128::RoundKeys& rk,
                            const std::uint8_t* in, std::uint8_t* out) {
  std::array<std::uint8_t, 16> s{};
  for (int i = 0; i < 16; ++i)
    s[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
        in[i] ^ rk[0][static_cast<std::size_t>(i)]);

  for (int round = 1; round <= Aes128::kRounds; ++round) {
    // SubBytes
    for (auto& b : s) b = kSbox[b];
    // ShiftRows (state is column-major: s[4*c + r])
    std::array<std::uint8_t, 16> t{};
    for (int c = 0; c < 4; ++c)
      for (int r = 0; r < 4; ++r)
        t[static_cast<std::size_t>(4 * c + r)] =
            s[static_cast<std::size_t>(4 * ((c + r) % 4) + r)];
    s = t;
    // MixColumns (skipped in the final round)
    if (round != Aes128::kRounds) {
      for (int c = 0; c < 4; ++c) {
        const std::uint8_t a0 = s[static_cast<std::size_t>(4 * c)];
        const std::uint8_t a1 = s[static_cast<std::size_t>(4 * c + 1)];
        const std::uint8_t a2 = s[static_cast<std::size_t>(4 * c + 2)];
        const std::uint8_t a3 = s[static_cast<std::size_t>(4 * c + 3)];
        s[static_cast<std::size_t>(4 * c)] =
            static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
        s[static_cast<std::size_t>(4 * c + 1)] =
            static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
        s[static_cast<std::size_t>(4 * c + 2)] =
            static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
        s[static_cast<std::size_t>(4 * c + 3)] =
            static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
      }
    }
    // AddRoundKey
    for (int i = 0; i < 16; ++i)
      s[static_cast<std::size_t>(i)] ^=
          rk[static_cast<std::size_t>(round)][static_cast<std::size_t>(i)];
  }
  std::copy(s.begin(), s.end(), out);
}

// --- AES-NI kernel -------------------------------------------------------------

#if MEDSEC_ARCH_X86_64

__m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

void store128(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// Round key i from round key i - 1 (`prev`) and AESKEYGENASSIST of it, whose
// top word is RotWord(SubWord(w[4i - 1])) ^ Rcon: each new word is the word
// four back XOR the new word before it, so word j of the result is the XOR
// of words 0..j of `prev` and that assist word.
__m128i expand_step(__m128i prev, __m128i assist) {
  assist = _mm_shuffle_epi32(assist, 0xFF);
  prev = _mm_xor_si128(prev, _mm_slli_si128(prev, 4));
  prev = _mm_xor_si128(prev, _mm_slli_si128(prev, 4));
  prev = _mm_xor_si128(prev, _mm_slli_si128(prev, 4));
  return _mm_xor_si128(prev, assist);
}

// AESKEYGENASSIST takes its round constant as an immediate, hence one line
// per round.
__attribute__((target("aes"))) void expand_key_aesni(const std::uint8_t* key,
                                                     Aes128::RoundKeys& rk) {
  __m128i k[Aes128::kRounds + 1];
  k[0] = load128(key);
  k[1] = expand_step(k[0], _mm_aeskeygenassist_si128(k[0], 0x01));
  k[2] = expand_step(k[1], _mm_aeskeygenassist_si128(k[1], 0x02));
  k[3] = expand_step(k[2], _mm_aeskeygenassist_si128(k[2], 0x04));
  k[4] = expand_step(k[3], _mm_aeskeygenassist_si128(k[3], 0x08));
  k[5] = expand_step(k[4], _mm_aeskeygenassist_si128(k[4], 0x10));
  k[6] = expand_step(k[5], _mm_aeskeygenassist_si128(k[5], 0x20));
  k[7] = expand_step(k[6], _mm_aeskeygenassist_si128(k[6], 0x40));
  k[8] = expand_step(k[7], _mm_aeskeygenassist_si128(k[7], 0x80));
  k[9] = expand_step(k[8], _mm_aeskeygenassist_si128(k[8], 0x1B));
  k[10] = expand_step(k[9], _mm_aeskeygenassist_si128(k[9], 0x36));
  for (std::size_t r = 0; r < rk.size(); ++r) store128(rk[r].data(), k[r]);
}

__attribute__((target("aes"))) void encrypt_block_aesni(
    const Aes128::RoundKeys& rk, const std::uint8_t* in, std::uint8_t* out) {
  __m128i s = _mm_xor_si128(load128(in), load128(rk[0].data()));
  for (std::size_t r = 1; r < Aes128::kRounds; ++r)
    s = _mm_aesenc_si128(s, load128(rk[r].data()));
  store128(out, _mm_aesenclast_si128(s, load128(rk[Aes128::kRounds].data())));
}

#endif  // MEDSEC_ARCH_X86_64

// The kernel this process runs, chosen once from CPUID.
const detail::Aes128Kernel& kernel() {
  static const detail::Aes128Kernel& k = detail::aes128_aesni() != nullptr
                                             ? *detail::aes128_aesni()
                                             : detail::aes128_portable();
  return k;
}

}  // namespace

namespace detail {

const Aes128Kernel& aes128_portable() {
  static constexpr Aes128Kernel k{expand_key_portable, encrypt_block_portable};
  return k;
}

const Aes128Kernel* aes128_aesni() {
#if MEDSEC_ARCH_X86_64
  static constexpr Aes128Kernel k{expand_key_aesni, encrypt_block_aesni};
  return __builtin_cpu_supports("aes") != 0 ? &k : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace detail

Aes128::Aes128(std::span<const std::uint8_t> key) {
  if (key.size() != kKeyBytes)
    throw std::invalid_argument("Aes128: key must be 16 bytes");
  kernel().expand_key(key.data(), round_key_);
}

void Aes128::encrypt_block(std::span<const std::uint8_t> in,
                           std::span<std::uint8_t> out) const {
  kernel().encrypt_block(round_key_, in.data(), out.data());
}

const CipherSuite kAes128Suite{
    Aes128::kKeyBytes, Aes128::kBlockBytes,
    [](std::span<const std::uint8_t> key) -> std::unique_ptr<BlockCipher> {
      return std::make_unique<Aes128>(key);
    }};

}  // namespace medsec::ciphers
