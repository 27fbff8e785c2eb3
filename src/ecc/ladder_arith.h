// ladder_arith.h — the ladder wrappers over ladder_core.h, templated over
// a field policy.
//
// The public ladder entry points in ladder.h (raw, fixed-length, affine,
// y-recovery, single and batch, plus the per-iteration helpers the DPA
// engine drives) read the active field backend once and run the matching
// LadderArith<Ops> member, so a whole 162-iteration ladder runs on one
// inlined kernel. The formulas themselves stay in ladder_core.h — the
// same templates the constant-time audit instantiates with TaintFe.
// LadderArith<ClmulOps> is instantiated only in gf2m/clmul_instances.cpp
// (see gf2m/field_ops.h).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "ecc/ladder.h"
#include "ecc/point_arith.h"
#include "gf2m/field_ops.h"

namespace medsec::ecc {

namespace detail {
inline void check_ladder_base_point(const Point& p) {
  if (p.infinity)
    throw std::invalid_argument("montgomery_ladder_raw: P is infinity");
  if (p.x.is_zero())
    throw std::invalid_argument("montgomery_ladder: x(P) = 0 (order-2 point)");
}
}  // namespace detail

template <class Ops>
struct LadderArith {
  static void add(const Fe& xd, const Fe& x1, const Fe& z1, const Fe& x2,
                  const Fe& z2, Fe& x3, Fe& z3);
  static void dbl(const Fe& b, const Fe& x, const Fe& z, Fe& x3, Fe& z3);
  static LadderState initial_state(const Fe& b, const Fe& x);
  static void randomize(LadderState& s, const Fe& l1, const Fe& l2);
  static void iteration(const Fe& b, const Fe& x_base, LadderState& s,
                        std::uint64_t bit);

  static LadderState raw(const Curve& curve, const Scalar& k, const Point& p,
                         const LadderOptions& options);
  static LadderState fixed_raw(const Curve& curve, const WideScalar& k,
                               std::size_t iterations, const Point& p,
                               const LadderOptions& options);
  static Point recover(const Curve& curve, const Point& p, const Fe& x1,
                       const Fe& z1, const Fe& x2, const Fe& z2);
  static std::vector<Point> recover_batch(
      const Curve& curve, const std::vector<Point>& bases,
      const std::vector<LadderState>& states);
  /// raw, then recover (montgomery_ladder).
  static Point mult(const Curve& curve, const Scalar& k, const Point& p,
                    const LadderOptions& options);
  /// fixed_raw, then recover (montgomery_ladder_fixed).
  static Point fixed(const Curve& curve, const WideScalar& k,
                     std::size_t iterations, const Point& p,
                     const LadderOptions& options);
  /// raw, then X1/Z1 with one inversion and no y-recovery (ladder_x);
  /// nullopt when k·p = O.
  static std::optional<Fe> x_only(const Curve& curve, const Scalar& k,
                                  const Point& p);
  /// X1/Z1 of n raw states with one batch inversion (ladder_x_many).
  static void x_only_batch(const LadderState* states, std::size_t n,
                           std::optional<Fe>* out);

 private:
  static Point recover_affine(const Curve& curve, const Point& p,
                              const Fe& x1, const Fe& z1, const Fe& x2,
                              const Fe& z2, const Fe& z1z2, const Fe& z1_inv,
                              const Fe& den_inv);
  static void randomize_state(LadderState& s, const LadderOptions& options);
  /// Run the ladder iterations for bits iterations-1 .. 0 of k, reporting
  /// each to the observer if one is installed.
  template <class K>
  static void run(const Curve& curve, const Fe& x, const K& k,
                  std::size_t iterations, LadderState& s,
                  const LadderOptions& options);
};

#if MEDSEC_HAVE_CLMUL_OPS
extern template struct LadderArith<gf2m::ClmulOps>;
#endif

template <class Ops>
void LadderArith<Ops>::add(const Fe& xd, const Fe& x1, const Fe& z1,
                           const Fe& x2, const Fe& z2, Fe& x3, Fe& z3) {
  LadderTemps r;
  ladder_add_t<ValueOps<Ops>>(xd, x1, z1, x2, z2, x3, z3, r);
}

template <class Ops>
void LadderArith<Ops>::dbl(const Fe& b, const Fe& x, const Fe& z, Fe& x3,
                           Fe& z3) {
  LadderTemps r;
  ladder_double_t<ValueOps<Ops>>(b, b == Fe::one(), x, z, x3, z3, r);
}

template <class Ops>
LadderState LadderArith<Ops>::initial_state(const Fe& b, const Fe& x) {
  return ladder_initial_state_t<ValueOps<Ops>>(b, x);
}

template <class Ops>
void LadderArith<Ops>::randomize(LadderState& s, const Fe& l1, const Fe& l2) {
  ladder_randomize_t<ValueOps<Ops>>(s, l1, l2);
}

template <class Ops>
void LadderArith<Ops>::iteration(const Fe& b, const Fe& x_base,
                                 LadderState& s, std::uint64_t bit) {
  LadderTemps r;
  ladder_iteration_t<ValueOps<Ops>>(b, b == Fe::one(), x_base, s, bit, r);
}

/// §7 projective randomization of a fresh ladder state: (x1, z1) *= l1,
/// (x2, z2) *= l2 with the randomizers drawn from the RNG or, in the
/// white-box scenario, taken from options.known_randomizers. Shared by
/// the classic and the fixed-length (blinded) entries.
template <class Ops>
void LadderArith<Ops>::randomize_state(LadderState& s,
                                       const LadderOptions& options) {
  if (!options.randomize_z && !options.known_randomizers) return;
  Fe l1, l2;
  if (options.known_randomizers) {
    l1 = options.known_randomizers->first;
    l2 = options.known_randomizers->second;
    if (l1.is_zero() || l2.is_zero())
      throw std::invalid_argument("montgomery_ladder: zero randomizer");
  } else {
    if (options.rng == nullptr)
      throw std::invalid_argument(
          "montgomery_ladder: randomize_z requires an RNG");
    l1 = random_nonzero_fe(*options.rng);
    l2 = random_nonzero_fe(*options.rng);
  }
  randomize(s, l1, l2);
}

template <class Ops>
template <class K>
void LadderArith<Ops>::run(const Curve& curve, const Fe& x, const K& k,
                           std::size_t iterations, LadderState& s,
                           const LadderOptions& options) {
  // Hoist the std::function emptiness test out of the hot loop: when no
  // observer is installed the iteration body is pure field arithmetic and
  // no LadderObservation is ever materialized.
  const bool has_observer = static_cast<bool>(options.observer);
  LadderTemps r;
  for (std::size_t i = iterations; i-- > 0;) {
    const std::uint64_t bit = k.bit(i) ? 1 : 0;
    ladder_iteration_t<ValueOps<Ops>>(curve.b(), curve.b_is_one(), x, s, bit,
                                      r);
    if (has_observer) {
      options.observer(LadderObservation{
          .bit_index = i,
          .key_bit = static_cast<int>(bit),
          .x1 = s.x1,
          .z1 = s.z1,
          .x2 = s.x2,
          .z2 = s.z2,
      });
    }
  }
}

template <class Ops>
LadderState LadderArith<Ops>::raw(const Curve& curve, const Scalar& k0,
                                  const Point& p,
                                  const LadderOptions& options) {
  detail::check_ladder_base_point(p);

  // Constant-length recoding: k + r (or k + 2r) acts identically on P but
  // has a fixed, key-independent bit length, so the iteration count is a
  // curve constant — the paper's timing-attack claim (§7).
  const Scalar k = constant_length_scalar(curve, k0);

  LadderState s = initial_state(curve.b(), p.x);
  randomize_state(s, options);
  // The leading 1 (bit order.bit_length()) is consumed by the initial
  // state; the rest is processed MSB first.
  run(curve, p.x, k, curve.order().bit_length(), s, options);
  return s;
}

template <class Ops>
LadderState LadderArith<Ops>::fixed_raw(const Curve& curve,
                                        const WideScalar& k,
                                        std::size_t iterations,
                                        const Point& p,
                                        const LadderOptions& options) {
  detail::check_ladder_base_point(p);
  if (iterations < k.bit_length() || iterations > WideScalar::kBits)
    throw std::invalid_argument(
        "montgomery_ladder_fixed_raw: iteration count does not cover k");

  LadderState s = ladder_zero_state_t(p.x);
  randomize_state(s, options);
  run(curve, p.x, k, iterations, s, options);
  return s;
}

/// Shared recovery arithmetic once the two inverses (1/Z1 and
/// 1/(x·Z1·Z2)) are in hand — the single-point path computes them with a
/// joint two-element inversion, the batch path with batch_inv.
/// z1z2 is the already-computed Z1·Z2 from the caller's denominator.
template <class Ops>
Point LadderArith<Ops>::recover_affine(const Curve& curve, const Point& p,
                                       const Fe& x1, const Fe& z1,
                                       const Fe& x2, const Fe& z2,
                                       const Fe& z1z2, const Fe& z1_inv,
                                       const Fe& den_inv) {
  const Fe x = p.x, y = p.y;
  const Fe xa = Ops::mul(x1, z1_inv);  // affine x(kP)

  const Fe t2 = x1 + Ops::mul(x, z1);  // X1 + x Z1
  const Fe t4 = x2 + Ops::mul(x, z2);  // X2 + x Z2
  const Fe num = Ops::mul_add_mul(t2, t4, Ops::sqr(x) + y, z1z2);
  const Fe ya = Ops::mul(Ops::mul(x + xa, num), den_inv) + y;

  const Point out = Point::affine(xa, ya);
  // Fault-detection canary (cheap version of the paper's point-validation
  // practice): the recovered point must satisfy the curve equation.
  if (!PointArith<Ops>::is_on_curve(curve, out))
    throw std::logic_error("montgomery_ladder: recovered point off-curve");
  return out;
}

template <class Ops>
Point LadderArith<Ops>::recover(const Curve& curve, const Point& p,
                                const Fe& x1, const Fe& z1, const Fe& x2,
                                const Fe& z2) {
  if (z1.is_zero()) return Point::at_infinity();
  if (z2.is_zero()) return curve.negate(p);  // kP = -P

  // Joint inversion of Z1 and x·Z1·Z2 (Montgomery's trick): one
  // Itoh–Tsujii inversion instead of two.
  const Fe z1z2 = Ops::mul(z1, z2);
  const Fe den = Ops::mul(p.x, z1z2);
  const Fe joint = Ops::inv(Ops::mul(z1, den));
  const Fe z1_inv = Ops::mul(joint, den);
  const Fe den_inv = Ops::mul(joint, z1);
  return recover_affine(curve, p, x1, z1, x2, z2, z1z2, z1_inv, den_inv);
}

template <class Ops>
std::vector<Point> LadderArith<Ops>::recover_batch(
    const Curve& curve, const std::vector<Point>& bases,
    const std::vector<LadderState>& states) {
  if (bases.size() != states.size())
    throw std::invalid_argument(
        "recover_from_ladder_batch: bases/states size mismatch");
  const std::size_t n = states.size();
  // Two denominators per point: [2i] = Z1, [2i+1] = x·Z1·Z2. Degenerate
  // accumulators stay zero, which batch_inv skips. Z1·Z2 is kept: the
  // recovery formula needs it again.
  std::vector<Fe> denoms(2 * n);
  std::vector<Fe> z1z2s(n);
  for (std::size_t i = 0; i < n; ++i) {
    const LadderState& s = states[i];
    if (s.z1.is_zero() || s.z2.is_zero()) continue;
    z1z2s[i] = Ops::mul(s.z1, s.z2);
    denoms[2 * i] = s.z1;
    denoms[2 * i + 1] = Ops::mul(bases[i].x, z1z2s[i]);
  }
  Ops::batch_inv(denoms.data(), denoms.size());

  std::vector<Point> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const LadderState& s = states[i];
    if (s.z1.is_zero()) {
      out.push_back(Point::at_infinity());
    } else if (s.z2.is_zero()) {
      out.push_back(curve.negate(bases[i]));
    } else {
      out.push_back(recover_affine(curve, bases[i], s.x1, s.z1, s.x2, s.z2,
                                   z1z2s[i], denoms[2 * i],
                                   denoms[2 * i + 1]));
    }
  }
  return out;
}

template <class Ops>
Point LadderArith<Ops>::mult(const Curve& curve, const Scalar& k,
                             const Point& p, const LadderOptions& options) {
  if (p.infinity) return Point::at_infinity();
  const LadderState s = raw(curve, k, p, options);
  return recover(curve, p, s.x1, s.z1, s.x2, s.z2);
}

template <class Ops>
Point LadderArith<Ops>::fixed(const Curve& curve, const WideScalar& k,
                              std::size_t iterations, const Point& p,
                              const LadderOptions& options) {
  if (p.infinity) return Point::at_infinity();
  const LadderState s = fixed_raw(curve, k, iterations, p, options);
  return recover(curve, p, s.x1, s.z1, s.x2, s.z2);
}

template <class Ops>
std::optional<Fe> LadderArith<Ops>::x_only(const Curve& curve,
                                           const Scalar& k, const Point& p) {
  const LadderState s = raw(curve, k, p, {});
  if (s.z1.is_zero()) return std::nullopt;
  return Ops::mul(s.x1, Ops::inv(s.z1));
}

template <class Ops>
void LadderArith<Ops>::x_only_batch(const LadderState* states, std::size_t n,
                                    std::optional<Fe>* out) {
  // Z1 = 0 (k·p = O) stays zero, which batch_inv skips.
  std::vector<Fe> z_inv(n);
  for (std::size_t i = 0; i < n; ++i) z_inv[i] = states[i].z1;
  Ops::batch_inv(z_inv.data(), n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = states[i].z1.is_zero()
                 ? std::nullopt
                 : std::optional<Fe>(Ops::mul(states[i].x1, z_inv[i]));
}

}  // namespace medsec::ecc
