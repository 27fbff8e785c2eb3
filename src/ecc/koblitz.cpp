#include "ecc/koblitz.h"

#include <stdexcept>

#include "ecc/curve_tables.h"

namespace medsec::ecc {

namespace {

using U128 = unsigned __int128;
using I128 = __int128;

/// Minimal signed integer on top of the unsigned Scalar: the tau-adic
/// expansion walks (a + b*tau) with a, b of either sign but magnitude
/// bounded by the original scalar, so U192 magnitudes suffice.
struct Signed {
  bool neg = false;
  Scalar mag;

  bool is_zero() const { return mag.is_zero(); }
  bool is_even() const { return !mag.bit(0); }

  /// Low bits as a signed residue helper: value mod 2^w in [0, 2^w).
  unsigned mod_pow2(unsigned w) const {
    const unsigned mask = (1u << w) - 1u;
    const unsigned m = static_cast<unsigned>(mag.limb(0)) & mask;
    if (!neg || m == 0) return m;
    return (1u << w) - m;  // (-mag) mod 2^w
  }

  Signed half() const {  // exact division by 2 (precondition: even)
    return Signed{neg, mag >> 1};
  }
  Signed negated() const { return Signed{!neg && !mag.is_zero(), mag}; }

  static Signed add(const Signed& x, const Signed& y) {
    if (x.neg == y.neg) {
      Scalar m = x.mag;
      m.add_in_place(y.mag);
      return Signed{x.neg && !m.is_zero(), m};
    }
    // Opposite signs: subtract smaller magnitude from larger.
    if (x.mag >= y.mag) {
      Scalar m = x.mag;
      m.sub_in_place(y.mag);
      return Signed{x.neg && !m.is_zero(), m};
    }
    Scalar m = y.mag;
    m.sub_in_place(x.mag);
    return Signed{y.neg, m};
  }

  static Signed from_int(int v) {
    return Signed{v < 0, Scalar{static_cast<std::uint64_t>(v < 0 ? -v : v)}};
  }
};

/// The even solution t_w of t^2 - mu*t + 2 == 0 (mod 2^w): tau == t_w under
/// the ring isomorphism Z[tau]/(tau^w) ~ Z/2^w, so (a + b*t_w) mod 2^w
/// decides divisibility of a + b*tau by powers of tau. w = 2 gives t = 2,
/// i.e. the classic "(a - 2b) mods 4" TNAF digit rule.
unsigned tau_modular_image(int mu, unsigned w) {
  const unsigned modulus = 1u << w;
  for (unsigned t = 0; t < modulus; t += 2) {
    const unsigned v = (t * t + modulus - (mu == 1 ? t : modulus - t) + 2u) &
                       (modulus - 1u);
    if (v == 0) return t;
  }
  throw std::logic_error("tau_modular_image: no root (unreachable)");
}

/// The width-w digit of a + b*tau for odd a, from a mod 2^w and b mod 2^w:
/// u = (a + b*t_w) mods 2^w, odd with |u| < 2^(w-1), so that a - u + b*tau
/// is divisible by tau^w and the next w-1 digits are zero. Both
/// expansions (integer and partially reduced) take their digits here.
int tau_digit(unsigned a_mod, unsigned b_mod, unsigned tw, unsigned width) {
  const unsigned modulus = 1u << width;
  const unsigned r = (a_mod + b_mod * tw) & (modulus - 1u);
  return r >= modulus / 2 ? static_cast<int>(r) - static_cast<int>(modulus)
                          : static_cast<int>(r);
}

/// v as a 256-bit magnitude.
bigint::U256 magnitude(I128 v) {
  const U128 m = v < 0 ? U128{0} - static_cast<U128>(v) : static_cast<U128>(v);
  bigint::U256 out;
  out.set_limb(0, static_cast<std::uint64_t>(m));
  out.set_limb(1, static_cast<std::uint64_t>(m >> 64));
  return out;
}

/// floor(num / den) by restoring division (one-time constant derivation).
bigint::U384 quotient(const bigint::U384& num, const bigint::U384& den) {
  bigint::U384 q, r;
  for (std::size_t i = num.bit_length(); i-- > 0;) {
    r = r << 1;
    r.set_bit(0, num.bit(i));
    if (r >= den) {
      r.sub_in_place(den);
      q.set_bit(i, true);
    }
  }
  return q;
}

/// floor(k * g / 2^shift) for k < 2^192, g < 2^128 and shift in (128, 192)
/// with the result below 2^128: a 3 x 2-limb schoolbook product.
U128 mul_shift(const Scalar& k, U128 g, std::size_t shift) {
  const std::uint64_t gl[2] = {static_cast<std::uint64_t>(g),
                               static_cast<std::uint64_t>(g >> 64)};
  std::uint64_t p[5] = {};
  for (std::size_t i = 0; i < 3; ++i) {
    U128 carry = 0;
    for (std::size_t j = 0; j < 2; ++j) {
      const U128 t = static_cast<U128>(k.limb(i)) * gl[j] + p[i + j] + carry;
      p[i + j] = static_cast<std::uint64_t>(t);
      carry = t >> 64;
    }
    p[i + 2] = static_cast<std::uint64_t>(carry);
  }
  const unsigned b = static_cast<unsigned>(shift - 128);  // in (0, 64)
  const U128 lo = p[2] | (static_cast<U128>(p[3]) << 64);
  return (lo >> b) | (static_cast<U128>(p[4]) << (128 - b));
}

}  // namespace

std::vector<int> tau_naf_digits(const Scalar& k, int mu) {
  return tau_naf_window_digits(k, mu, 2);
}

std::vector<int> tau_naf_window_digits(const Scalar& k, int mu,
                                       unsigned width) {
  if (mu != 1 && mu != -1)
    throw std::invalid_argument("tau_naf_digits: mu must be +-1");
  // Width is capped at 5: the integer-digit expansion provably terminates
  // for w in [2, 5] (exhaustive small-state sweep + norm contraction), but
  // cycles for w = 6. Larger windows would need Solinas' element digits
  // alpha_u = u mods tau^w.
  if (width < 2 || width > 5)
    throw std::invalid_argument("tau_naf_window_digits: width in [2, 5]");

  const unsigned tw = tau_modular_image(mu, width);

  // Walk a + b*tau, emitting a digit and dividing by tau:
  //   u = 0                              if a even
  //   u = tau_digit(a, b)                if a odd
  //   a <- a - u;  (a, b) <- (b + mu*(a/2), -(a/2))
  std::vector<int> out;
  Signed a{false, k};
  Signed b;  // 0
  // Expansion length is ~2 * 163 digits; the cap is a non-termination
  // canary, not a tuning knob.
  const std::size_t max_digits = 4 * Scalar::kBits + 64;
  while (!a.is_zero() || !b.is_zero()) {
    int u = 0;
    if (!a.is_even()) {
      u = tau_digit(a.mod_pow2(width), b.mod_pow2(width), tw, width);
      a = Signed::add(a, Signed::from_int(-u));
    }
    out.push_back(u);
    if (out.size() > max_digits)
      throw std::logic_error("tau_naf_window_digits: expansion diverged");
    const Signed half_a = a.half();
    const Signed new_b = half_a.negated();
    a = Signed::add(b, mu == 1 ? half_a : half_a.negated());
    b = new_b;
  }
  return out;
}

std::optional<TauReducer> TauReducer::derive(const Curve& curve) {
  const bool koblitz =
      curve.b_is_one() && (curve.a_is_one() || curve.a().is_zero());
  const std::size_t n_bits = curve.order().bit_length();
  if (!koblitz || n_bits <= 128 || n_bits >= 192) return std::nullopt;

  TauReducer t;
  t.mu_ = curve.frobenius_trace_mu();
  t.tw_ = tau_modular_image(t.mu_, kWidth);
  t.n_bits_ = n_bits;
  const U128 mu = static_cast<U128>(static_cast<I128>(t.mu_));

  // delta = sum of tau^j for j < m, stepping tau^(j+1) = tau*(x + y*tau)
  // = -2y + (x + mu*y)*tau. Every coefficient stays below 2^84.
  U128 x = 1, y = 0, d0 = 0, d1 = 0;
  for (std::size_t j = 0; j < Fe::kBits; ++j) {
    d0 += x;
    d1 += y;
    const U128 next_x = U128{0} - 2 * y;
    y = x + mu * y;
    x = next_x;
  }

  // N(delta) = d0^2 + mu*d0*d1 + 2*d1^2 must be the group order, so that
  // delta kills exactly the prime-order subgroup.
  const I128 sd0 = static_cast<I128>(d0), sd1 = static_cast<I128>(d1);
  const bigint::U256 a0 = magnitude(sd0), a1 = magnitude(sd1);
  const bigint::U256 squares = a0 * a0 + ((a1 * a1) << 1);
  const bigint::U256 cross = a0 * a1;
  const bool cross_neg = ((sd0 < 0) != (sd1 < 0)) != (t.mu_ < 0);
  const bigint::U256 norm = cross_neg ? squares - cross : squares + cross;
  if (norm != curve.order().resize<256>()) return std::nullopt;

  t.d0_ = d0;
  t.s0_ = d0 + mu * d1;
  t.s1_ = U128{0} - d1;
  // g_i = floor(|s_i| * 2^(bits(n) + 32) / n): k*s_i/n to 32 fractional
  // bits is then floor(k*g_i / 2^bits(n)), off by less than 2^-31.
  const U128 s[2] = {t.s0_, t.s1_};
  for (std::size_t i = 0; i < 2; ++i) {
    const I128 si = static_cast<I128>(s[i]);
    t.s_neg_[i] = si < 0;
    const bigint::U384 num = magnitude(si).resize<384>() << (n_bits + 32);
    const bigint::U384 g = quotient(num, curve.order().resize<384>());
    if (g.bit_length() > 127) return std::nullopt;
    t.g_[i] = g.limb(0) | (static_cast<U128>(g.limb(1)) << 64);
  }
  return t;
}

TauElement TauReducer::reduce(const Scalar& k) const {
  // lambda_i = k*s_i/n in fixed point with 32 fractional bits.
  constexpr unsigned kFrac = 32;
  U128 lambda[2];
  for (std::size_t i = 0; i < 2; ++i) {
    const U128 m = mul_shift(k, g_[i], n_bits_);
    lambda[i] = s_neg_[i] ? U128{0} - m : m;
  }

  // Round lambda0 + lambda1*tau to q0 + q1*tau in Z[tau] (HMV Alg. 3.63):
  // f_i = round(lambda_i), eta_i = lambda_i - f_i in [-1/2, 1/2), then a
  // unit step on q0 or q1 where the rounded point leaves the region of
  // norm <= 4/7. The eta comparisons are in units of 2^-32.
  U128 f[2];
  std::int64_t eta[2];
  for (std::size_t i = 0; i < 2; ++i) {
    const U128 shifted = lambda[i] + (U128{1} << (kFrac - 1));
    f[i] = static_cast<U128>(static_cast<I128>(shifted) >> kFrac);
    eta[i] = static_cast<std::int64_t>(lambda[i] - (f[i] << kFrac));
  }
  constexpr std::int64_t kOne = std::int64_t{1} << kFrac;
  const std::int64_t mu = mu_;
  const std::int64_t e = 2 * eta[0] + mu * eta[1];
  const std::int64_t lo = eta[0] - 3 * mu * eta[1];
  const std::int64_t hi = eta[0] + 4 * mu * eta[1];
  std::int64_t h0 = 0, h1 = 0;
  if (e >= kOne) {
    if (lo < -kOne) h1 = mu;
    else h0 = 1;
  } else if (hi >= 2 * kOne) {
    h1 = mu;
  }
  if (e < -kOne) {
    if (lo >= kOne) h1 = -mu;
    else h0 = -1;
  } else if (hi < -2 * kOne) {
    h1 = -mu;
  }
  const U128 q0 = f[0] + static_cast<U128>(static_cast<I128>(h0));
  const U128 q1 = f[1] + static_cast<U128>(static_cast<I128>(h1));

  // rho = k - delta*q: r0 = k - d0*q0 - 2*s1*q1, r1 = s1*q0 - s0*q1. Both
  // fit in 83 bits, so the low 128 bits of k suffice.
  const U128 k_low = k.limb(0) | (static_cast<U128>(k.limb(1)) << 64);
  const U128 r0 = k_low - d0_ * q0 - 2 * s1_ * q1;
  const U128 r1 = s1_ * q0 - s0_ * q1;
  return TauElement{static_cast<I128>(r0), static_cast<I128>(r1)};
}

std::size_t TauReducer::digits(const TauElement& rho,
                               std::span<std::int8_t, kMaxDigits> out) const {
  constexpr unsigned kMask = (1u << kWidth) - 1u;
  U128 a = static_cast<U128>(rho.r0);
  U128 b = static_cast<U128>(rho.r1);
  std::size_t len = 0;
  while (a != 0 || b != 0) {
    int u = 0;
    if ((a & 1) != 0) {
      u = tau_digit(static_cast<unsigned>(a) & kMask,
                    static_cast<unsigned>(b) & kMask, tw_, kWidth);
      a -= static_cast<U128>(static_cast<I128>(u));
    }
    if (len == kMaxDigits)
      throw std::logic_error("TauReducer::digits: expansion diverged");
    out[len++] = static_cast<std::int8_t>(u);
    // (a + b*tau)/tau = (b + mu*a/2) - (a/2)*tau; a is even here.
    const U128 half = static_cast<U128>(static_cast<I128>(a) >> 1);
    a = mu_ == 1 ? b + half : b - half;
    b = U128{0} - half;
  }
  return len;
}

const TauReducer* tau_reducer(const Curve& curve) {
  const auto& reducer = detail::curve_tables(curve).reducer;
  return reducer ? &*reducer : nullptr;
}

TauNafPrecomp::TauNafPrecomp(const Curve& curve, const Point& p,
                             unsigned w)
    : width(w), base(p) {
  if (w < 2 || w > 5)
    throw std::invalid_argument("TauNafPrecomp: width in [2, 5]");
  odd.resize(std::size_t{1} << (w - 2));
  odd[0] = p;
  const Point p2 = curve.dbl(p);
  for (std::size_t i = 1; i < odd.size(); ++i)
    odd[i] = curve.add(odd[i - 1], p2);
}

Point tau_naf_mult(const Curve& curve, const Scalar& k, const Point& p,
                   MultStats* stats) {
  if (p.infinity) return p;
  return tau_naf_mult(curve, k, TauNafPrecomp(curve, p, 4), stats);
}

Point tau_naf_mult(const Curve& curve, const Scalar& k,
                   const TauNafPrecomp& precomp, MultStats* stats) {
  const Point& p = precomp.base;
  if (p.infinity) return p;
  const int mu = curve.frobenius_trace_mu();
  const std::vector<int> digits =
      tau_naf_window_digits(k.mod(curve.order()), mu, precomp.width);
  if (stats) stats->op_pattern.reserve(stats->op_pattern.size() +
                                       digits.size());

  // Horner over tau, most significant digit first:
  //   Q <- tau(Q); Q <- Q +- u*P (precomputed) when the digit is nonzero.
  Point q = Point::at_infinity();
  for (std::size_t i = digits.size(); i-- > 0;) {
    q = curve.frobenius(q);
    if (stats) ++stats->op_slots;  // Frobenius: 2 squarings, near-free
    const int d = digits[i];
    if (d != 0) {
      const Point& m = precomp.odd[static_cast<std::size_t>(
          ((d > 0 ? d : -d) - 1) / 2)];
      q = curve.add(q, d > 0 ? m : curve.negate(m));
      if (stats) {
        ++stats->point_adds;
        ++stats->op_slots;
      }
    }
    if (stats) stats->op_pattern.push_back(d != 0 ? 1 : 0);
  }
  return q;
}

const TauNafPrecomp& generator_tau_precomp(const Curve& curve) {
  return detail::curve_tables(curve).tau_precomp;
}

}  // namespace medsec::ecc
