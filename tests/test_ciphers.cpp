// Published-test-vector and property tests for the symmetric substrates:
// AES-128 (FIPS 197), PRESENT (CHES 2007 paper vectors), CTR/CMAC modes
// (NIST SP 800-38A/B), the encrypt-then-MAC composition the mutual-auth
// protocol uses, and the cipher suites the protocols build them through.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "ciphers/aes128.h"
#include "ciphers/modes.h"
#include "ciphers/present.h"
#include "rng/xoshiro.h"

namespace {

namespace ci = medsec::ciphers;

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(
        static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  return out;
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

std::vector<std::uint8_t> encrypt(const ci::BlockCipher& c,
                                  const std::vector<std::uint8_t>& pt) {
  std::vector<std::uint8_t> ct(pt.size());
  c.encrypt_block(pt, ct);
  return ct;
}

// --- AES-128 (FIPS 197 Appendix C.1) -----------------------------------------

TEST(Aes128, Fips197Vector) {
  const ci::Aes128 aes(from_hex("000102030405060708090a0b0c0d0e0f"));
  const auto pt = from_hex("00112233445566778899aabbccddeeff");
  EXPECT_EQ(to_hex(encrypt(aes, pt)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, Sp80038aEcbVectors) {
  const ci::Aes128 aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const auto ct = encrypt(aes, from_hex("6bc1bee22e409f96e93d7e117393172a"));
  EXPECT_EQ(to_hex(ct), "3ad77bb40d7a3660a89ecaf32466ef97");
}

// Aes128 runs the AES-NI kernel wherever CPUID has it, so the byte-wise
// kernel is reached through detail:: here to keep it tested on such hosts.
TEST(Aes128, PortableKernelFips197Example) {
  const auto& sw = ci::detail::aes128_portable();
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  ci::Aes128::RoundKeys rk{};
  sw.expand_key(key.data(), rk);
  EXPECT_EQ(to_hex(rk[10]), "d014f9a8c9ee2589e13f0cc8b6630ca6");  // A.1
  auto block = from_hex("3243f6a8885a308d313198a2e0370734");       // B
  sw.encrypt_block(rk, block.data(), block.data());
  EXPECT_EQ(to_hex(block), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes128, AesniKernelMatchesPortable) {
  const auto* hw = ci::detail::aes128_aesni();
  if (hw == nullptr) GTEST_SKIP() << "CPU lacks AES-NI";
  const auto& sw = ci::detail::aes128_portable();
  medsec::rng::Xoshiro256 rng(0xAE5);
  for (int i = 0; i < 10000; ++i) {
    std::array<std::uint8_t, 16> key{}, pt{};
    rng.fill(key);
    rng.fill(pt);
    ci::Aes128::RoundKeys rk_sw{}, rk_hw{};
    sw.expand_key(key.data(), rk_sw);
    hw->expand_key(key.data(), rk_hw);
    ASSERT_EQ(rk_hw, rk_sw) << "key #" << i;

    std::array<std::uint8_t, 16> ct_sw{}, ct_hw{};
    sw.encrypt_block(rk_sw, pt.data(), ct_sw.data());
    hw->encrypt_block(rk_sw, pt.data(), ct_hw.data());
    ASSERT_EQ(ct_hw, ct_sw) << "block #" << i;
    auto in_place_sw = pt, in_place_hw = pt;  // in == out
    sw.encrypt_block(rk_sw, in_place_sw.data(), in_place_sw.data());
    hw->encrypt_block(rk_sw, in_place_hw.data(), in_place_hw.data());
    ASSERT_EQ(in_place_sw, ct_sw) << "block #" << i;
    ASSERT_EQ(in_place_hw, ct_sw) << "block #" << i;
  }
}

// --- PRESENT (Bogdanov et al., CHES 2007, Table 2) ----------------------------

struct PresentVector {
  const char* key;
  const char* pt;
  const char* ct;
};

class Present80Vectors : public ::testing::TestWithParam<PresentVector> {};

TEST_P(Present80Vectors, Matches) {
  const auto& v = GetParam();
  const ci::Present c(from_hex(v.key));
  EXPECT_EQ(to_hex(encrypt(c, from_hex(v.pt))), v.ct);
}

INSTANTIATE_TEST_SUITE_P(
    Ches2007, Present80Vectors,
    ::testing::Values(
        PresentVector{"00000000000000000000", "0000000000000000",
                      "5579c1387b228445"},
        PresentVector{"ffffffffffffffffffff", "0000000000000000",
                      "e72c46c0f5945049"},
        PresentVector{"00000000000000000000", "ffffffffffffffff",
                      "a112ffc72f68417b"},
        PresentVector{"ffffffffffffffffffff", "ffffffffffffffff",
                      "3333dcd3213210d2"}));

TEST(Present, KeySizeInferredFromKeyLength) {
  const ci::Present p80(std::vector<std::uint8_t>(10, 0));
  const ci::Present p128(std::vector<std::uint8_t>(16, 0));
  EXPECT_EQ(p80.block_bytes(), 8u);
  // Different key schedules must encrypt differently.
  const std::vector<std::uint8_t> pt(8, 0);
  EXPECT_NE(encrypt(p80, pt), encrypt(p128, pt));
}

// --- permutation property across the shipped ciphers -------------------------

TEST(AllCiphers, EncryptionIsAPermutationOnDistinctBlocks) {
  const ci::Aes128 aes(std::vector<std::uint8_t>(16, 0x42));
  const ci::Present p80(std::vector<std::uint8_t>(10, 0x42));
  const ci::Present p128(std::vector<std::uint8_t>(16, 0x42));
  const ci::BlockCipher* const shipped[] = {&aes, &p80, &p128};
  for (const ci::BlockCipher* c : shipped) {
    std::vector<std::uint8_t> a(c->block_bytes(), 0x00);
    std::vector<std::uint8_t> b(c->block_bytes(), 0x00);
    b[0] = 1;
    EXPECT_NE(encrypt(*c, a), encrypt(*c, b));
  }
}

// --- modes ----------------------------------------------------------------------

TEST(Modes, CtrRoundTripAndKeystreamProperty) {
  const ci::Aes128 aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const std::vector<std::uint8_t> nonce(12, 0xAB);
  std::vector<std::uint8_t> msg(45);
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<std::uint8_t>(i);
  const auto ct = ci::ctr_crypt(aes, nonce, msg);
  EXPECT_EQ(ct.size(), msg.size());
  EXPECT_EQ(ci::ctr_crypt(aes, nonce, ct), msg);  // involution
}

TEST(Modes, CmacNistVectors) {
  // NIST SP 800-38B, AES-128 examples.
  const ci::Aes128 aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  EXPECT_EQ(to_hex(ci::cmac(aes, {})),
            "bb1d6929e95937287fa37d129b756746");
  EXPECT_EQ(to_hex(ci::cmac(aes, from_hex("6bc1bee22e409f96e93d7e117393172a"))),
            "070a16b46b4d4144f79bdd9dd04a287c");
  EXPECT_EQ(
      to_hex(ci::cmac(
          aes, from_hex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c"
                        "9eb76fac45af8e5130c81c46a35ce411"))),
      "dfa66747de9ae63030ca32611497c827");
}

TEST(Modes, CmacWorksOn8ByteBlocks) {
  const ci::Present p(std::vector<std::uint8_t>(10, 1));
  const auto m1 = ci::cmac(p, from_hex("00"));
  const auto m2 = ci::cmac(p, from_hex("01"));
  EXPECT_EQ(m1.size(), 8u);
  EXPECT_NE(m1, m2);
}

TEST(Modes, EncryptThenMacRoundTripAndTamperDetection) {
  const ci::Aes128 enc(std::vector<std::uint8_t>(16, 3));
  const ci::Aes128 mac(std::vector<std::uint8_t>(16, 4));
  const std::vector<std::uint8_t> nonce(12, 9);
  const auto pt = from_hex("000102030405060708090a0b0c0d0e0f1011");
  const auto sealed = ci::encrypt_then_mac(enc, mac, nonce, pt);

  std::vector<std::uint8_t> out;
  EXPECT_TRUE(ci::decrypt_then_verify(enc, mac, nonce, sealed.ciphertext,
                                      sealed.tag, out));
  EXPECT_EQ(out, pt);

  auto bad_ct = sealed.ciphertext;
  bad_ct[0] ^= 1;
  EXPECT_FALSE(
      ci::decrypt_then_verify(enc, mac, nonce, bad_ct, sealed.tag, out));
  auto bad_tag = sealed.tag;
  bad_tag[0] ^= 1;
  EXPECT_FALSE(ci::decrypt_then_verify(enc, mac, nonce, sealed.ciphertext,
                                       bad_tag, out));
}

// The tag ledgers' charge for one encrypt_then_mac against the block calls
// it makes: one more, since the CTR pass is charged a block beyond its
// keystream.
TEST(Modes, EncryptThenMacChargeIsItsBlockCallsPlusOne) {
  struct Counter final : ci::BlockCipher {  // counts, encrypts nothing
    explicit Counter(std::size_t bytes) : bb(bytes) {}
    std::size_t block_bytes() const override { return bb; }
    void encrypt_block(std::span<const std::uint8_t>,
                       std::span<std::uint8_t>) const override {
      ++calls;
    }
    std::size_t bb;
    mutable std::size_t calls = 0;
  };
  for (const std::size_t bb : {8u, 16u}) {
    const std::vector<std::uint8_t> nonce(bb - 4, 9);
    for (const std::size_t len : {0u, 1u, 5u, 16u, 33u, 48u}) {
      const Counter enc(bb), mac(bb);
      ci::encrypt_then_mac(enc, mac, nonce, std::vector<std::uint8_t>(len, 1));
      EXPECT_EQ(ci::encrypt_then_mac_blocks(bb, nonce.size(), len),
                enc.calls + mac.calls + 1)
          << "block " << bb << " length " << len;
    }
  }
}

// --- cipher suites ---------------------------------------------------------

TEST(CipherSuites, ConstantsDescribeAndBuildTheirCiphers) {
  struct Case {
    const ci::CipherSuite* suite;
    std::size_t key_bytes, block_bytes;
  };
  for (const Case& cs : {Case{&ci::kAes128Suite, 16, 16},
                         Case{&ci::kPresent80Suite, 10, 8}}) {
    EXPECT_EQ(cs.suite->key_bytes, cs.key_bytes);
    EXPECT_EQ(cs.suite->block_bytes, cs.block_bytes);
    const std::vector<std::uint8_t> key(cs.key_bytes, 7);
    EXPECT_EQ(cs.suite->build(key)->block_bytes(), cs.block_bytes);
    // Six bytes more is refused, even where the cipher takes it: Present
    // would run PRESENT-128 on 16.
    const std::vector<std::uint8_t> longer(cs.key_bytes + 6, 7);
    EXPECT_THROW(cs.suite->build(longer), std::invalid_argument);
  }
  const auto p80 = ci::kPresent80Suite.build(from_hex("ffffffffffffffffffff"));
  EXPECT_EQ(to_hex(encrypt(*p80, from_hex("0000000000000000"))),
            "e72c46c0f5945049");
}

}  // namespace
