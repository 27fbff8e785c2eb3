#include "hash/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "gf2m/arch.h"

namespace medsec::hash {

namespace {
constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// --- portable compression --------------------------------------------------------

void compress_block(Sha256::State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t S1 =
        std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + S1 + ch + kK[i] + w[i];
    const std::uint32_t S0 =
        std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = S0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

// --- SHA-NI compression ------------------------------------------------------------

#if MEDSEC_ARCH_X86_64

// SHA256RNDS2 keeps the state as two words-of-four, ABEF and CDGH, and runs
// two rounds per instruction on the low two words of its W + K operand. Each
// 4-round group g adds K[4g..4g+3] to the schedule words W[4g..4g+3], held in
// msg[g % 4]: the first four groups load them from the block (big-endian
// words), the later twelve compute them from the four before with
// SHA256MSG1 (the sigma0 terms), an add of W[t-7] and SHA256MSG2 (the sigma1
// terms). Register names list the words from the high lane down.
__attribute__((target("sha,ssse3,sse4.1"))) void compress_shani(
    Sha256::State& state, const std::uint8_t* blocks, std::size_t n) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n > 0; --n, blocks += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& w = msg[g % 4];
      if (g < 4) {
        w = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            bswap);
      } else {
        const __m128i& w1 = msg[(g + 1) % 4];  // W[4g-12..4g-9]
        const __m128i& w2 = msg[(g + 2) % 4];  // W[4g-8..4g-5]
        const __m128i& w3 = msg[(g + 3) % 4];  // W[4g-4..4g-1]
        w = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w, w1),
                          _mm_alignr_epi8(w3, w2, 4)),
            w3);
      }
      const __m128i wk = _mm_add_epi32(
          w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // MEDSEC_ARCH_X86_64

// The compression this process runs, chosen once from CPUID.
detail::Sha256Compress compress() {
  static const detail::Sha256Compress c =
      detail::sha256_compress_shani() != nullptr
          ? detail::sha256_compress_shani()
          : detail::sha256_compress_portable;
  return c;
}

}  // namespace

namespace detail {

void sha256_compress_portable(Sha256::State& state, const std::uint8_t* blocks,
                              std::size_t n) {
  for (; n > 0; --n, blocks += Sha256::kBlockSize) compress_block(state, blocks);
}

Sha256Compress sha256_compress_shani() {
#if MEDSEC_ARCH_X86_64
  return __builtin_cpu_supports("sha") != 0 &&
                 __builtin_cpu_supports("sse4.1") != 0
             ? compress_shani
             : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace detail

void Sha256::reset() {
  state_ = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
            0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  total_bytes_ = 0;
  buffer_len_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;  // also keeps nullptr out of memcpy (UB)
  total_bytes_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ != 0) {
    const std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off += take;
    if (buffer_len_ == kBlockSize) {
      compress()(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - off) / kBlockSize;
  if (blocks != 0) {
    compress()(state_, data.data() + off, blocks);
    off += blocks * kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
}

Sha256::Digest Sha256::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  // 0x80, zeros up to 56 mod 64, then the bit length big-endian: one update
  // that ends on a block boundary.
  std::array<std::uint8_t, kBlockSize + 8> pad{};
  pad[0] = 0x80;
  const std::size_t len_at = 1 + (kBlockSize + 55 - buffer_len_) % kBlockSize;
  for (std::size_t i = 0; i < 8; ++i)
    pad[len_at + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  update({pad.data(), len_at + 8});

  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  reset();
  return out;
}

}  // namespace medsec::hash
