// biguint.h — fixed-width big unsigned integers.
//
// Substrate for scalar arithmetic modulo the elliptic-curve group order
// (163-bit prime for K-163) used by the protocol layer (Peeters–Hermans
// response s = d + x + e*r mod l) and by scalar-multiplication tests.
//
// BigUInt<Bits> is a value type backed by 64-bit limbs (little-endian limb
// order). All arithmetic is well-defined (no UB on overflow: add/sub report
// carry/borrow, mul widens). Operations run in time independent of the
// *values* involved except where noted: compare() exits at the first
// differing limb, and mod() is a shift-subtract loop whose trip count
// follows the operands' bit lengths. Secret scalars (nonces, keys,
// blinds) are therefore never reduced with mod(); they go through
// ModRing::reduce, the branch-free Barrett path (modring.h). mod() stays
// the reduction for small moduli and the test oracle.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>
#include <stdexcept>

namespace medsec::bigint {

/// Fixed-width unsigned integer with Bits bits of storage.
template <std::size_t Bits>
class BigUInt {
 public:
  static_assert(Bits >= 64, "BigUInt requires at least one limb worth of bits");
  static constexpr std::size_t kBits = Bits;
  static constexpr std::size_t kLimbs = (Bits + 63) / 64;

  constexpr BigUInt() = default;

  /// Construct from a single 64-bit value (zero-extended).
  constexpr explicit BigUInt(std::uint64_t v) { limb_[0] = v; }

  /// Parse a big-endian hex string (optional "0x" prefix). Throws
  /// std::invalid_argument on bad characters or overflow.
  static BigUInt from_hex(std::string_view hex) {
    if (hex.starts_with("0x") || hex.starts_with("0X")) hex.remove_prefix(2);
    if (hex.empty()) throw std::invalid_argument("BigUInt::from_hex: empty");
    BigUInt out;
    std::size_t nibble = 0;
    for (std::size_t i = hex.size(); i-- > 0;) {
      const char c = hex[i];
      std::uint64_t v = 0;
      if (c >= '0' && c <= '9') v = static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v = static_cast<std::uint64_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v = static_cast<std::uint64_t>(c - 'A' + 10);
      else throw std::invalid_argument("BigUInt::from_hex: bad digit");
      if (v != 0) {
        const std::size_t bit = nibble * 4;
        if (bit + 4 > kLimbs * 64)
          throw std::invalid_argument("BigUInt::from_hex: overflow");
        out.limb_[bit / 64] |= v << (bit % 64);
      }
      ++nibble;
    }
    return out;
  }

  /// Lowercase hex, no prefix, leading zeros stripped ("0" for zero).
  std::string to_hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string s;
    s.reserve(kLimbs * 16);
    bool seen = false;
    for (std::size_t i = kLimbs; i-- > 0;) {
      for (int shift = 60; shift >= 0; shift -= 4) {
        const unsigned d = static_cast<unsigned>((limb_[i] >> shift) & 0xF);
        if (d != 0) seen = true;
        if (seen) s.push_back(kDigits[d]);
      }
    }
    if (!seen) return "0";
    return s;
  }

  constexpr std::uint64_t limb(std::size_t i) const { return limb_[i]; }
  constexpr void set_limb(std::size_t i, std::uint64_t v) { limb_[i] = v; }

  constexpr bool is_zero() const {
    std::uint64_t acc = 0;
    for (auto l : limb_) acc |= l;
    return acc == 0;
  }

  constexpr bool bit(std::size_t i) const {
    return i < kLimbs * 64 && ((limb_[i / 64] >> (i % 64)) & 1u) != 0;
  }

  constexpr void set_bit(std::size_t i, bool v) {
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    if (v) limb_[i / 64] |= mask;
    else limb_[i / 64] &= ~mask;
  }

  /// Number of significant bits (0 for zero). Visits every limb and
  /// keeps the highest nonzero one under a mask: no early exit and no
  /// bit-by-bit scan, so the cost does not depend on the value.
  constexpr std::size_t bit_length() const {
    std::size_t len = 0;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      const std::size_t here =
          i * 64 + 64 - static_cast<std::size_t>(std::countl_zero(limb_[i]));
      const std::size_t keep = 0 - static_cast<std::size_t>(limb_[i] != 0);
      len = (here & keep) | (len & ~keep);
    }
    return len;
  }

  /// Three-way compare: -1, 0, +1.
  constexpr int compare(const BigUInt& o) const {
    for (std::size_t i = kLimbs; i-- > 0;) {
      if (limb_[i] != o.limb_[i]) return limb_[i] < o.limb_[i] ? -1 : 1;
    }
    return 0;
  }

  friend constexpr bool operator==(const BigUInt& a, const BigUInt& b) {
    return a.compare(b) == 0;
  }
  friend constexpr bool operator<(const BigUInt& a, const BigUInt& b) {
    return a.compare(b) < 0;
  }
  friend constexpr bool operator<=(const BigUInt& a, const BigUInt& b) {
    return a.compare(b) <= 0;
  }
  friend constexpr bool operator>(const BigUInt& a, const BigUInt& b) {
    return a.compare(b) > 0;
  }
  friend constexpr bool operator>=(const BigUInt& a, const BigUInt& b) {
    return a.compare(b) >= 0;
  }

  /// a += b; returns the carry out of the top limb.
  constexpr std::uint64_t add_in_place(const BigUInt& b) {
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      const unsigned __int128 s =
          static_cast<unsigned __int128>(limb_[i]) + b.limb_[i] + carry;
      limb_[i] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    return carry;
  }

  /// a -= b; returns the borrow out of the top limb (1 if b > a).
  constexpr std::uint64_t sub_in_place(const BigUInt& b) {
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      const unsigned __int128 d = static_cast<unsigned __int128>(limb_[i]) -
                                  b.limb_[i] - borrow;
      limb_[i] = static_cast<std::uint64_t>(d);
      borrow = static_cast<std::uint64_t>((d >> 64) & 1);
    }
    return borrow;
  }

  friend constexpr BigUInt operator+(BigUInt a, const BigUInt& b) {
    a.add_in_place(b);
    return a;
  }
  friend constexpr BigUInt operator-(BigUInt a, const BigUInt& b) {
    a.sub_in_place(b);
    return a;
  }

  friend constexpr BigUInt operator^(BigUInt a, const BigUInt& b) {
    for (std::size_t i = 0; i < kLimbs; ++i) a.limb_[i] ^= b.limb_[i];
    return a;
  }
  friend constexpr BigUInt operator&(BigUInt a, const BigUInt& b) {
    for (std::size_t i = 0; i < kLimbs; ++i) a.limb_[i] &= b.limb_[i];
    return a;
  }
  friend constexpr BigUInt operator|(BigUInt a, const BigUInt& b) {
    for (std::size_t i = 0; i < kLimbs; ++i) a.limb_[i] |= b.limb_[i];
    return a;
  }

  /// Logical left shift by any amount (bits shifted past the top are lost).
  constexpr BigUInt shl(std::size_t n) const {
    BigUInt out;
    if (n >= kLimbs * 64) return out;
    const std::size_t limb_shift = n / 64;
    const std::size_t bit_shift = n % 64;
    for (std::size_t i = kLimbs; i-- > limb_shift;) {
      std::uint64_t v = limb_[i - limb_shift] << bit_shift;
      if (bit_shift != 0 && i > limb_shift)
        v |= limb_[i - limb_shift - 1] >> (64 - bit_shift);
      out.limb_[i] = v;
    }
    return out;
  }

  /// Logical right shift by any amount.
  constexpr BigUInt shr(std::size_t n) const {
    BigUInt out;
    if (n >= kLimbs * 64) return out;
    const std::size_t limb_shift = n / 64;
    const std::size_t bit_shift = n % 64;
    for (std::size_t i = 0; i + limb_shift < kLimbs; ++i) {
      std::uint64_t v = limb_[i + limb_shift] >> bit_shift;
      if (bit_shift != 0 && i + limb_shift + 1 < kLimbs)
        v |= limb_[i + limb_shift + 1] << (64 - bit_shift);
      out.limb_[i] = v;
    }
    return out;
  }

  friend constexpr BigUInt operator<<(const BigUInt& a, std::size_t n) {
    return a.shl(n);
  }
  friend constexpr BigUInt operator>>(const BigUInt& a, std::size_t n) {
    return a.shr(n);
  }

  /// Widening schoolbook multiply (fixed loop counts, no carry branch).
  friend constexpr BigUInt<2 * Bits> widening_mul(const BigUInt& a,
                                                  const BigUInt& b) {
    BigUInt<2 * Bits> out;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      std::uint64_t carry = 0;
      for (std::size_t j = 0; j < kLimbs; ++j) {
        const unsigned __int128 cur =
            static_cast<unsigned __int128>(a.limb_[i]) * b.limb_[j] +
            out.limb(i + j) + carry;
        out.set_limb(i + j, static_cast<std::uint64_t>(cur));
        carry = static_cast<std::uint64_t>(cur >> 64);
      }
      // Limb i + kLimbs is still zero here (row i - 1 ended one limb
      // lower), so the row's carry lands there without propagating.
      if (i + kLimbs < BigUInt<2 * Bits>::kLimbs)
        out.set_limb(i + kLimbs, carry);
    }
    return out;
  }

  /// Truncating multiply (low Bits of the product).
  friend constexpr BigUInt operator*(const BigUInt& a, const BigUInt& b) {
    const auto wide = widening_mul(a, b);
    BigUInt out;
    for (std::size_t i = 0; i < kLimbs; ++i) out.limb_[i] = wide.limb(i);
    return out;
  }

  /// a + r·b, widened by one limb so it can never overflow: the substrate
  /// of the scalar-blinding countermeasure k' = k + r·n (Coron), where the
  /// 64-bit blind r pushes the sum past the Bits-bit working width.
  friend constexpr BigUInt<Bits + 64> add_scaled(const BigUInt& a,
                                                 std::uint64_t r,
                                                 const BigUInt& b) {
    BigUInt<Bits + 64> out = a.template resize<Bits + 64>();
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(b.limb_[i]) * r + out.limb(i) + carry;
      out.set_limb(i, static_cast<std::uint64_t>(cur));
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    for (std::size_t i = kLimbs; carry != 0 && i < BigUInt<Bits + 64>::kLimbs;
         ++i) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(out.limb(i)) + carry;
      out.set_limb(i, static_cast<std::uint64_t>(cur));
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    return out;
  }

  /// Truncate/zero-extend to another width.
  template <std::size_t OtherBits>
  constexpr BigUInt<OtherBits> resize() const {
    BigUInt<OtherBits> out;
    const std::size_t n = kLimbs < BigUInt<OtherBits>::kLimbs
                              ? kLimbs
                              : BigUInt<OtherBits>::kLimbs;
    for (std::size_t i = 0; i < n; ++i) out.set_limb(i, limb_[i]);
    return out;
  }

  /// Remainder of *this divided by m (shift-subtract long division).
  /// Not constant-time: the loop runs once per bit of length difference
  /// and branches on every trial subtraction. Public values and the test
  /// oracle only; secrets reduce through ModRing::reduce. m must be
  /// nonzero.
  constexpr BigUInt mod(const BigUInt& m) const {
    if (m.is_zero()) throw std::invalid_argument("BigUInt::mod: zero modulus");
    BigUInt r = *this;
    const std::size_t mbits = m.bit_length();
    std::size_t rbits = r.bit_length();
    while (rbits >= mbits) {
      BigUInt shifted = m.shl(rbits - mbits);
      if (shifted <= r) {
        r.sub_in_place(shifted);
      } else if (rbits > mbits) {
        r.sub_in_place(m.shl(rbits - mbits - 1));
      } else {
        break;  // rbits == mbits and shifted > r: r < m, done.
      }
      rbits = r.bit_length();
    }
    return r;
  }

  /// Constant-time conditional select: returns a if choice==0, b if 1.
  static constexpr BigUInt select(std::uint64_t choice, const BigUInt& a,
                                  const BigUInt& b) {
    const std::uint64_t mask = 0 - (choice & 1);
    BigUInt out;
    for (std::size_t i = 0; i < kLimbs; ++i)
      out.limb_[i] = (a.limb_[i] & ~mask) | (b.limb_[i] & mask);
    return out;
  }

 private:
  std::array<std::uint64_t, kLimbs> limb_{};
};

using U192 = BigUInt<192>;
using U256 = BigUInt<256>;
using U384 = BigUInt<384>;

}  // namespace medsec::bigint
