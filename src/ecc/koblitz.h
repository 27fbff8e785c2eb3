// koblitz.h — tau-adic scalar multiplication on Koblitz curves.
//
// The paper picks K-163 ("Our ECC chip uses a Koblitz curve") partly for
// the carry-free field and partly because Koblitz curves admit the
// cheapest known scalar multiplication: the Frobenius endomorphism
// tau(x, y) = (x^2, y^2) costs two squarings (three in López–Dahab
// coordinates), and tau satisfies
//
//     tau^2 - mu*tau + 2 = 0,      mu = (-1)^(1-a)  (+1 on K-163)
//
// so any scalar can be rewritten in base tau and the point multiplication
// needs NO point doublings at all — only Frobenius maps and additions.
//
// Two expansions live here, sharing one digit rule (a + b*t_w) mods 2^w:
//
//   * The reader's path. TauReducer applies Solinas' partial reduction
//     ("Efficient Arithmetic on Koblitz Curves", DCC 19, 2000; HMV Alg.
//     3.62/3.63): k becomes rho = r0 + r1*tau ≡ k (mod delta) with
//     delta = (tau^m - 1)/(tau - 1), |r_i| < 2^82, and rho's width-4 TNAF
//     has ~m digits. delta kills every point of odd order n, so rho·P =
//     k·P on the prime-order subgroup and nowhere else.
//     double_scalar_mult (scalar_mult.h) runs this path on K-163 when both
//     points pass the subgroup gate.
//   * The demo. tau_naf_mult / MultAlgorithm::kTauNaf expands the
//     *integer* scalar directly, with no lattice reduction, and so has ~2m
//     digits. That shape is deliberate: e4's SPA row and the TauNaf tests
//     pin it, and it is valid for any point on the curve.
//
// The trade-off the paper's chip makes: TNAF beats the ladder on speed
// but its add positions are key-dependent (SPA!) and it needs the y
// coordinate — so the constant-schedule x-only ladder wins on the
// device, and TNAF serves the energy-rich reader side, on public scalars
// only. The benches quantify exactly that.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ecc/curve.h"
#include "ecc/scalar_mult.h"

namespace medsec::ecc {

/// tau-adic NAF digits of k (little-endian, each 0 or +-1, non-adjacent).
/// mu must be the curve's Frobenius trace sign (Curve::frobenius_trace_mu).
/// Throws std::invalid_argument for |mu| != 1.
std::vector<int> tau_naf_digits(const Scalar& k, int mu);

/// Width-w tau-adic digits of the integer k: odd integer digits u with
/// |u| < 2^(w-1), and after every nonzero digit at least w-1 zeros (the
/// expansion is chosen so a + b*tau becomes divisible by tau^w after each
/// subtraction). The nonzero-digit density drops from ~1/3 (w = 2) to
/// ~1/(w+1), which is the point of the precomputed table below. width in
/// [2, 5] (the integer-digit expansion terminates for these widths;
/// larger windows would need Solinas' element digits); width 2 reproduces
/// tau_naf_digits.
std::vector<int> tau_naf_window_digits(const Scalar& k, int mu,
                                       unsigned width);

/// An element r0 + r1*tau of Z[tau].
struct TauElement {
  __int128 r0 = 0;
  __int128 r1 = 0;
};

/// Partial reduction modulo delta = (tau^m - 1)/(tau - 1) and the width-4
/// TNAF of the result, with the lattice constants of one Koblitz curve.
///
/// delta = d0 + d1*tau is summed from tau^0 .. tau^(m-1), and its norm
/// d0^2 + mu*d0*d1 + 2*d1^2 must equal the group order n (it does on
/// K-163: #E = 2n and #E(F_2) = 2). k/delta = (k*s0 + k*s1*tau)/n with
/// s0 = d0 + mu*d1, s1 = -d1; each k*s_i/n is read to 32 fractional bits
/// through a precomputed reciprocal (no division per scalar), rounded in
/// Z[tau] (HMV Alg. 3.63), and rho = k - delta*q lands with
/// N(rho) <= ~(4/7)n, hence |r0| < 2^82 and |r1| < 2^81. All per-scalar
/// arithmetic wraps in unsigned __int128: the results fit, so wrapping
/// is exact and nothing overflows a signed type.
class TauReducer {
 public:
  static constexpr unsigned kWidth = 4;
  /// Capacity of a digit buffer. A reduced scalar takes at most ~168
  /// digits (tests pin the bound); the cap is a non-termination canary.
  static constexpr std::size_t kMaxDigits = 192;

  /// The reducer for `curve`, or nullopt unless it is a Koblitz curve over
  /// F_2^163 (a in {0, 1}, b = 1) whose delta has norm n.
  static std::optional<TauReducer> derive(const Curve& curve);

  /// rho ≡ k (mod delta). Precondition: k < n (reduce through the curve's
  /// scalar_ring() first).
  TauElement reduce(const Scalar& k) const;

  /// Width-4 TNAF of rho into `out`, little-endian: odd digits in
  /// (-8, 8), each followed by at least 3 zeros. Returns the digit count;
  /// throws std::logic_error past kMaxDigits.
  std::size_t digits(const TauElement& rho,
                     std::span<std::int8_t, kMaxDigits> out) const;

 private:
  TauReducer() = default;

  using U128 = unsigned __int128;
  int mu_ = 1;
  unsigned tw_ = 0;     ///< tau's image mod 2^kWidth
  U128 d0_ = 0;         ///< delta = d0 + d1*tau, mod 2^128
  U128 s1_ = 0;         ///< s1 = -d1, mod 2^128
  U128 s0_ = 0;         ///< s0 = d0 + mu*d1, mod 2^128
  U128 g_[2] = {0, 0};  ///< floor(|s_i| * 2^(bits(n) + 32) / n)
  bool s_neg_[2] = {false, false};
  std::size_t n_bits_ = 0;
};

/// The curve's TauReducer, built once with its other tables; nullptr
/// unless TauReducer::derive accepts the curve.
const TauReducer* tau_reducer(const Curve& curve);

/// Precomputed odd multiples P, 3P, ..., (2^(w-1)-1)P of a fixed base
/// point for width-w tau-adic multiplication (the tau-NAF analogue of the
/// wNAF table). Build once per base point; the generator's table is
/// cached process-wide by generator_tau_precomp().
struct TauNafPrecomp {
  unsigned width;
  Point base;
  std::vector<Point> odd;  ///< odd[i] = (2i+1)·base

  TauNafPrecomp(const Curve& curve, const Point& p, unsigned width = 4);
};

/// k*P via width-4 windowed TNAF of the integer k: Frobenius maps +
/// additions, zero doublings. Precondition: the curve is Koblitz (a in
/// {0,1}, b = 1); K-163 and the test curves qualify. The result is
/// cross-checked against the ladder in tests for random scalars.
Point tau_naf_mult(const Curve& curve, const Scalar& k, const Point& p,
                   MultStats* stats = nullptr);

/// Same, with a caller-held precomputed table (amortizes the table across
/// many multiplications by the same base point).
Point tau_naf_mult(const Curve& curve, const Scalar& k,
                   const TauNafPrecomp& precomp, MultStats* stats = nullptr);

/// The curve generator's width-4 table, built once with the curve's other
/// tables (see generator_comb).
const TauNafPrecomp& generator_tau_precomp(const Curve& curve);

}  // namespace medsec::ecc
