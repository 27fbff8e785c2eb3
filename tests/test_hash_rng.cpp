// Vector and property tests for the hash substrate (SHA-1/SHA-256 FIPS
// vectors, HMAC RFC 4231, HKDF RFC 5869) and the randomness substrate
// (Xoshiro, HMAC-DRBG, TRNG model + SP 800-90B health tests).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "hash/hmac.h"
#include "hash/sha1.h"
#include "hash/sha256.h"
#include "rng/hmac_drbg.h"
#include "rng/trng_model.h"
#include "rng/xoshiro.h"

namespace {

using medsec::hash::Sha1;
using medsec::hash::Sha256;

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

std::string to_hex(std::span<const std::uint8_t> v) {
  static const char* d = "0123456789abcdef";
  std::string s;
  for (const auto b : v) {
    s += d[b >> 4];
    s += d[b & 0xf];
  }
  return s;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(
        static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  return out;
}

// --- SHA-1 ---------------------------------------------------------------------

TEST(Sha1, FipsVectors) {
  EXPECT_EQ(to_hex(Sha1::digest(bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(to_hex(Sha1::digest({})),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(to_hex(Sha1::digest(bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  Sha1 h;
  h.update(bytes("ab"));
  h.update(bytes("c"));
  EXPECT_EQ(to_hex(h.finish()), to_hex(Sha1::digest(bytes("abc"))));
}

// --- SHA-256 -------------------------------------------------------------------

TEST(Sha256, FipsVectors) {
  EXPECT_EQ(to_hex(Sha256::digest(bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::digest(bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, BoundaryLengths) {
  // 55/56/64-byte messages straddle the padding boundary.
  for (const std::size_t len : {55u, 56u, 63u, 64u, 65u}) {
    const std::vector<std::uint8_t> msg(len, 'x');
    Sha256 h;
    for (const auto b : msg) h.update({&b, 1});
    EXPECT_EQ(to_hex(h.finish()), to_hex(Sha256::digest(msg))) << len;
  }
}

// Sha256 runs the SHA-NI compression wherever CPUID has it, so the portable
// one is reached through detail:: here to keep it tested on such hosts. The
// padding below is written from FIPS 180-4 section 5.1.1, independently of
// Sha256::finish; lengths 0-300 cover every padding shape and up to five
// blocks per compression call.
Sha256::Digest digest_through(medsec::hash::detail::Sha256Compress compress,
                              std::span<const std::uint8_t> msg) {
  std::vector<std::uint8_t> m(msg.begin(), msg.end());
  m.push_back(0x80);
  while (m.size() % Sha256::kBlockSize != 56) m.push_back(0);
  const std::uint64_t bits = msg.size() * 8;
  for (int i = 7; i >= 0; --i)
    m.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  Sha256::State s = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
                     0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  compress(s, m.data(), m.size() / Sha256::kBlockSize);
  Sha256::Digest out{};
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<std::uint8_t>(s[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

std::vector<std::vector<std::uint8_t>> messages_of_every_length() {
  medsec::rng::Xoshiro256 rng(0x5A256);
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t len = 0; len <= 300; ++len) {
    out.emplace_back(len);
    rng.fill(out.back());
  }
  return out;
}

TEST(Sha256, PortableCompressionMatchesDigestAtEveryLength) {
  for (const auto& msg : messages_of_every_length())
    ASSERT_EQ(to_hex(digest_through(
                  medsec::hash::detail::sha256_compress_portable, msg)),
              to_hex(Sha256::digest(msg)))
        << msg.size();
}

TEST(Sha256, ShaniCompressionMatchesPortableAtEveryLength) {
  const auto shani = medsec::hash::detail::sha256_compress_shani();
  if (shani == nullptr) GTEST_SKIP() << "CPU lacks SHA-NI";
  for (const auto& msg : messages_of_every_length())
    ASSERT_EQ(to_hex(digest_through(shani, msg)),
              to_hex(digest_through(
                  medsec::hash::detail::sha256_compress_portable, msg)))
        << msg.size();
}

// --- HMAC / HKDF ----------------------------------------------------------------

TEST(Hmac, Rfc4231TestCase1And2) {
  const auto k1 = std::vector<std::uint8_t>(20, 0x0b);
  const std::string tag1 =
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  const std::string tag2 =
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  EXPECT_EQ(to_hex(medsec::hash::Hmac<Sha256>::mac(k1, bytes("Hi There"))),
            tag1);
  EXPECT_EQ(to_hex(medsec::hash::Hmac<Sha256>::mac(
                bytes("Jefe"), bytes("what do ya want for nothing?"))),
            tag2);

  // One object per key, reused after finish() (and after a reset() that
  // drops a partial message): every tag starts from the keyed state.
  medsec::hash::Hmac<Sha256> h1(k1), h2(bytes("Jefe"));
  for (int round = 0; round < 3; ++round) {
    h1.update(bytes("Hi "));
    h1.update(bytes("There"));
    EXPECT_EQ(to_hex(h1.finish()), tag1) << "round " << round;
    h2.update(bytes("discarded"));
    h2.reset();
    h2.update(bytes("what do ya want for nothing?"));
    EXPECT_EQ(to_hex(h2.finish()), tag2) << "round " << round;
  }
}

TEST(Hmac, Rfc4231LongKey) {
  const auto key = std::vector<std::uint8_t>(131, 0xaa);
  EXPECT_EQ(
      to_hex(medsec::hash::Hmac<Sha256>::mac(
          key, bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hkdf, Rfc5869TestCase1) {
  const auto ikm = std::vector<std::uint8_t>(22, 0x0b);
  const auto salt = from_hex("000102030405060708090a0b0c");
  const auto info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const auto okm = medsec::hash::hkdf<Sha256>(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");

  // Every length 1-200 (one to seven blocks, every tail) against RFC 5869
  // §2.3 spelled out with one-shot MACs: T(i) = HMAC(PRK, T(i-1) | info | i).
  using Mac = medsec::hash::Hmac<Sha256>;
  const auto prk = Mac::mac(salt, ikm);
  std::vector<std::uint8_t> stream, t;
  for (std::uint8_t i = 1; stream.size() < 200; ++i) {
    std::vector<std::uint8_t> msg = t;
    msg.insert(msg.end(), info.begin(), info.end());
    msg.push_back(i);
    const auto block = Mac::mac(prk, msg);
    t.assign(block.begin(), block.end());
    stream.insert(stream.end(), t.begin(), t.end());
  }
  for (std::size_t len = 1; len <= 200; ++len) {
    const auto out = medsec::hash::hkdf<Sha256>(salt, ikm, info, len);
    ASSERT_EQ(out, std::vector<std::uint8_t>(stream.begin(),
                                             stream.begin() + len))
        << "length " << len;
  }
}

TEST(Hash, ConstantTimeEqual) {
  const auto a = bytes("same");
  const auto b = bytes("same");
  const auto c = bytes("diff");
  EXPECT_TRUE(medsec::hash::constant_time_equal(a, b));
  EXPECT_FALSE(medsec::hash::constant_time_equal(a, c));
  EXPECT_FALSE(medsec::hash::constant_time_equal(a, bytes("longer")));
}

// --- Xoshiro --------------------------------------------------------------------

TEST(Xoshiro, DeterministicPerSeedDistinctAcrossSeeds) {
  medsec::rng::Xoshiro256 a(1), b(1), c(2);
  for (int i = 0; i < 10; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    EXPECT_NE(va, c.next_u64());
  }
}

TEST(Xoshiro, UniformBoundAndNonzeroScalar) {
  medsec::rng::Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform(17), 17u);
  medsec::bigint::U192 modulus{1000};
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.uniform_nonzero(modulus);
    EXPECT_FALSE(v.is_zero());
    EXPECT_LT(v, modulus);
  }
}

TEST(Xoshiro, FillCoversAllBytePositions) {
  medsec::rng::Xoshiro256 rng(4);
  std::vector<std::uint8_t> buf(37, 0);
  rng.fill(buf);
  int nonzero = 0;
  for (const auto b : buf) nonzero += b != 0;
  EXPECT_GT(nonzero, 25);  // all-zero bytes would be a fill bug
}

// --- HMAC-DRBG ------------------------------------------------------------------

TEST(HmacDrbg, DeterministicAndReseedChangesStream) {
  const std::vector<std::uint8_t> seed{1, 2, 3, 4};
  medsec::rng::HmacDrbg a(seed), b(seed);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  const std::vector<std::uint8_t> extra{9};
  a.reseed(extra);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(HmacDrbg, OutputLooksBalanced) {
  medsec::rng::HmacDrbg d(std::vector<std::uint8_t>{5, 5, 5});
  int ones = 0;
  constexpr int kWords = 1000;
  for (int i = 0; i < kWords; ++i)
    ones += std::popcount(d.next_u64());
  const double frac = static_cast<double>(ones) / (64.0 * kWords);
  EXPECT_NEAR(frac, 0.5, 0.01);
}

// --- TRNG model + health tests ----------------------------------------------------

TEST(Trng, UnbiasedSourcePassesHealthTests) {
  medsec::rng::TrngModel::Params p;  // defaults: unbiased, uncorrelated
  p.seed = 11;
  medsec::rng::TrngModel trng(p);
  medsec::rng::RepetitionCountTest rct(1.0);
  medsec::rng::AdaptiveProportionTest apt(1.0);
  for (int i = 0; i < 4096; ++i) {
    const int bit = trng.next_bit();
    EXPECT_TRUE(rct.feed(bit));
    EXPECT_TRUE(apt.feed(bit));
  }
}

TEST(Trng, StuckSourceTripsRepetitionCount) {
  // Failure injection: the oscillator died and the source sticks at 1.
  medsec::rng::TrngModel::Params p;
  p.bias = 1.0;
  p.seed = 12;
  medsec::rng::TrngModel trng(p);
  medsec::rng::RepetitionCountTest rct(1.0);
  bool tripped = false;
  for (int i = 0; i < 256 && !tripped; ++i)
    tripped = !rct.feed(trng.next_bit());
  EXPECT_TRUE(tripped);
  EXPECT_TRUE(rct.failed());
}

TEST(Trng, BiasedSourceTripsAdaptiveProportion) {
  medsec::rng::TrngModel::Params p;
  p.bias = 0.9;  // 90% ones, claimed full entropy
  p.seed = 13;
  medsec::rng::TrngModel trng(p);
  medsec::rng::AdaptiveProportionTest apt(1.0);
  bool tripped = false;
  for (int i = 0; i < 8192 && !tripped; ++i)
    tripped = !apt.feed(trng.next_bit());
  EXPECT_TRUE(tripped);
}

TEST(Trng, EntropyEstimateTracksBias) {
  auto collect = [](double bias, std::uint64_t seed) {
    medsec::rng::TrngModel::Params p;
    p.bias = bias;
    p.seed = seed;
    medsec::rng::TrngModel trng(p);
    std::vector<int> bits;
    for (int i = 0; i < 8192; ++i) bits.push_back(trng.next_bit());
    return medsec::rng::estimate_entropy(bits);
  };
  const auto fair = collect(0.5, 14);
  const auto skew = collect(0.8, 15);
  EXPECT_GT(fair.shannon_per_bit, 0.99);
  EXPECT_LT(skew.shannon_per_bit, 0.85);
  EXPECT_LT(skew.min_entropy_per_bit, skew.shannon_per_bit);
  EXPECT_NEAR(skew.ones_fraction, 0.8, 0.03);
}

TEST(Trng, VonNeumannDebiaserRemovesBias) {
  medsec::rng::TrngModel::Params p;
  p.bias = 0.8;
  p.seed = 16;
  medsec::rng::TrngModel trng(p);
  medsec::rng::VonNeumannDebiaser vn;
  int ones = 0, total = 0;
  for (int i = 0; i < 60000; ++i) {
    const auto out = vn.feed(trng.next_bit());
    if (out) {
      ones += *out;
      ++total;
    }
  }
  ASSERT_GT(total, 1000);
  EXPECT_NEAR(static_cast<double>(ones) / total, 0.5, 0.03);
}

}  // namespace
