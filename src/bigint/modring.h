// modring.h — arithmetic modulo a fixed odd modulus.
//
// Used for scalar arithmetic modulo the group order l of the elliptic-curve
// subgroup (a 163-bit prime for K-163). Residues are kept fully reduced in
// [0, m). Inversion uses the binary extended GCD; exponentiation is
// left-to-right square-and-multiply.
//
// Reduction is Barrett's (HAC Algorithm 14.42) with base b = 2^64 and
// k = Bits / 64 limbs: mu = floor(2^(2·Bits) / m) is computed once in the
// constructor, after which reducing any 2·Bits-wide value costs two
// fixed-size multiplications and two masked subtractions — no loop over
// the operand's bit length and no branch on its value. This is the path
// every secret scalar takes (nonce reduction in the comb, the
// constant-length ladder padding, scalar blinding, the prover's e·x).
// Barrett needs the modulus' top limb to be nonzero (m >= 2^(Bits-64));
// smaller moduli fall back to BigUInt::mod, which also serves as the
// test oracle.
#pragma once

#include <optional>
#include <stdexcept>

#include "bigint/biguint.h"

namespace medsec::bigint {

/// Ring of integers modulo m, where m fits in Bits bits.
template <std::size_t Bits>
class ModRing {
  static_assert(Bits % 64 == 0, "ModRing: Barrett works on whole limbs");

 public:
  using Value = BigUInt<Bits>;
  using Wide = BigUInt<2 * Bits>;

  explicit ModRing(Value modulus) : m_(modulus) {
    if (m_.is_zero()) throw std::invalid_argument("ModRing: zero modulus");
    if (!m_.bit(0)) throw std::invalid_argument("ModRing: modulus must be odd");
    barrett_ = m_.limb(Value::kLimbs - 1) != 0 && !(m_ == Value{1});
    if (barrett_) mu_ = reciprocal(m_);
  }

  const Value& modulus() const { return m_; }

  /// True when reduce/reduce_wide run Barrett (m >= 2^(Bits-64)); false
  /// for small moduli, which reduce with BigUInt::mod.
  bool uses_barrett() const { return barrett_; }

  /// Reduce an arbitrary Bits-wide value into [0, m).
  Value reduce(const Value& a) const {
    if (!barrett_) return a.mod(m_);
    return barrett(a.template resize<2 * Bits>());
  }

  /// Reduce a double-width value (e.g. a product) into [0, m).
  Value reduce_wide(const Wide& a) const {
    if (!barrett_)
      return a.mod(m_.template resize<2 * Bits>()).template resize<Bits>();
    return barrett(a);
  }

  Value add(const Value& a, const Value& b) const {
    Value r = a;
    const std::uint64_t carry = r.add_in_place(b);
    Value t = r;
    const std::uint64_t borrow = t.sub_in_place(m_);
    // a + b - m when the sum carried out of the top limb (then t wrapped
    // back into range) or is at least m; selected under a mask.
    return Value::select(carry | (borrow ^ 1), r, t);
  }

  Value sub(const Value& a, const Value& b) const {
    Value r = a;
    const std::uint64_t borrow = r.sub_in_place(b);
    Value t = r;
    t.add_in_place(m_);
    return Value::select(borrow, r, t);
  }

  Value neg(const Value& a) const {
    Value r = m_;
    r.sub_in_place(a);
    return Value::select(static_cast<std::uint64_t>(a.is_zero()), r, a);
  }

  Value mul(const Value& a, const Value& b) const {
    return reduce_wide(widening_mul(a, b));
  }

  Value sqr(const Value& a) const { return mul(a, a); }

  Value pow(const Value& base, const Value& exp) const {
    Value result{1};
    const std::size_t n = exp.bit_length();
    for (std::size_t i = n; i-- > 0;) {
      result = sqr(result);
      if (exp.bit(i)) result = mul(result, base);
    }
    return result;
  }

  /// Modular inverse via binary extended GCD. Returns nullopt when
  /// gcd(a, m) != 1 (never happens for prime m and a != 0).
  std::optional<Value> inv(const Value& a0) const {
    const Value a = reduce(a0);
    if (a.is_zero()) return std::nullopt;
    // Invariants: u*x == a (mod m), v*y == a (mod m) for hidden x, y with
    // gcd preserved; classic binary algorithm (HAC 14.61 variant for odd m).
    Value u = a, v = m_;
    Value x1{1}, x2{0};
    while (!u.is_zero() && !(u == Value{1}) && !(v == Value{1})) {
      while (!u.is_zero() && !u.bit(0)) {
        u = u.shr(1);
        if (x1.bit(0)) x1.add_in_place(m_);
        x1 = x1.shr(1);
      }
      while (!v.bit(0)) {
        v = v.shr(1);
        if (x2.bit(0)) x2.add_in_place(m_);
        x2 = x2.shr(1);
      }
      if (u >= v) {
        u.sub_in_place(v);
        x1 = sub(x1, x2);
      } else {
        v.sub_in_place(u);
        x2 = sub(x2, x1);
      }
    }
    if (u == Value{1}) return reduce(x1);
    if (v == Value{1}) return reduce(x2);
    return std::nullopt;  // gcd != 1
  }

 private:
  /// One limb wider than Value: the width of q1, mu and q3 below.
  using Ext = BigUInt<Bits + 64>;
  static constexpr std::size_t kK = Value::kLimbs;

  /// mu = floor(2^(2·Bits) / m) by restoring division of 2^(2·Bits) - 1,
  /// which has the same quotient (an odd m > 1 never divides a power of
  /// two). Runs once per ring; m >= 2^(Bits-64) keeps mu below 2^(Bits+64).
  static Ext reciprocal(const Value& m) {
    const Ext me = m.template resize<Bits + 64>();
    Ext r, q;
    for (std::size_t i = 2 * Bits; i-- > 0;) {
      r = r.shl(1);
      r.set_bit(0, true);
      q = q.shl(1);
      if (r >= me) {
        r.sub_in_place(me);
        q.set_bit(0, true);
      }
    }
    return q;
  }

  /// HAC 14.42: q3 = floor(floor(x / b^(k-1)) · mu / b^(k+1)) undershoots
  /// floor(x / m) by at most 2, so r = x - q3·m (computed mod b^(k+1))
  /// lies in [0, 3m) and two masked subtractions finish the job.
  Value barrett(const Wide& x) const {
    const Ext q1 = x.shr(64 * (kK - 1)).template resize<Bits + 64>();
    const Ext q3 = widening_mul(q1, mu_).shr(64 * (kK + 1)).template resize<
        Bits + 64>();
    const Ext me = m_.template resize<Bits + 64>();
    Ext r = x.template resize<Bits + 64>();
    r.sub_in_place(q3 * me);  // both sides mod b^(k+1)
    for (int i = 0; i < 2; ++i) {
      Ext t = r;
      const std::uint64_t borrow = t.sub_in_place(me);
      r = Ext::select(borrow ^ 1, r, t);
    }
    return r.template resize<Bits>();
  }

  Value m_;
  bool barrett_ = false;
  Ext mu_{};
};

}  // namespace medsec::bigint
