// ladder_core.h — the Montgomery-ladder formulas, templated over the
// field arithmetic.
//
// THE one definition of the López–Dahab x-only add / double / iteration
// arithmetic. Production code instantiates it with FE = gf2m::Gf163 and
// Ops = one of the gf2m/field_ops.h policies (through LadderArith in
// ladder_arith.h, behind the ladder.h wrappers, so every existing call
// site keeps its signature), and the constant-time audit harness
// instantiates it with FE = Ops = ctaudit::TaintFe — the secret-taint
// interpreter. The audit therefore exercises the *same* formulas the
// victim runs, not a re-implementation that could drift: a
// secret-dependent branch or table index introduced into the ladder core
// shows up in the taint report by construction.
//
// Ops contract: static mul / sqr / mul_add_mul / sqr_add_mul over FE.
// FE contract: static cswap / zero / one, plus operator+
// (characteristic-2 addition). Ops is named explicitly at every call
// (ladder_iteration_t<Ops>(...)); FE and Bit are deduced. `Bit` is the
// cswap selector type: std::uint64_t in production, Tainted<std::uint64_t>
// in the audit build — cswap must consume it branch-free (masking), which
// is exactly what the taint wrapper verifies.
//
// The doubling takes the curve's b together with the public flag
// `b_is_one` (Curve::b_is_one, read from the curve's value): on K-163
// (b = 1) it squares X^2 + Z^2 instead of multiplying Z^4 by b. The flag
// is a curve constant, never secret, and the audit's ladder-classic row
// runs on K-163, so its taint report covers the b = 1 branch the tag
// executes; the ladder-blinded row covers the general-b branch on B-163.
#pragma once

namespace medsec::ecc {

/// The ladder's working state over any field-element type:
/// (x1 : z1) = k_high·P, (x2 : z2) = (k_high + 1)·P.
template <class FE>
struct LadderStateT {
  FE x1, z1, x2, z2;
};

/// x-only differential addition: Z3 = (X1 Z2 + X2 Z1)^2,
/// X3 = x_diff·Z3 + (X1 Z2)(X2 Z1).
template <class Ops, class FE>
inline void ladder_add_t(const FE& xd, const FE& x1, const FE& z1,
                         const FE& x2, const FE& z2, FE& x3, FE& z3) {
  const FE t = Ops::mul(x1, z2);
  const FE u = Ops::mul(x2, z1);
  z3 = Ops::sqr(t + u);
  x3 = Ops::mul_add_mul(xd, z3, t, u);  // xd·z3 + t·u, one reduction
}

/// x-only doubling: X3 = X^4 + b Z^4, Z3 = X^2 Z^2.
template <class Ops, class FE>
inline void ladder_double_t(const FE& b, bool b_is_one, const FE& x,
                            const FE& z, FE& x3, FE& z3) {
  const FE x2 = Ops::sqr(x);
  const FE z2 = Ops::sqr(z);
  z3 = Ops::mul(x2, z2);
  if (b_is_one)
    x3 = Ops::sqr(x2 + z2);  // X^4 + Z^4 = (X^2 + Z^2)^2
  else
    x3 = Ops::sqr_add_mul(x2, b, Ops::sqr(z2));  // one reduction
}

/// Unrandomized initial state for base-point x:
/// lo = P = (x : 1), hi = 2P = (x^4 + b : x^2).
template <class Ops, class FE>
inline LadderStateT<FE> ladder_initial_state_t(const FE& b, const FE& x) {
  return LadderStateT<FE>{x, FE::one(), Ops::sqr(Ops::sqr(x)) + b,
                          Ops::sqr(x)};
}

/// Neutral start state (lo, hi) = (O, P) = ((1 : 0), (x : 1)) — correct
/// for scalars with leading zero bits (the blinded fixed-length entry).
template <class FE>
inline LadderStateT<FE> ladder_zero_state_t(const FE& x) {
  return LadderStateT<FE>{FE::one(), FE::zero(), x, FE::one()};
}

/// One ladder iteration for key bit `bit` (cswap / add+double / cswap).
template <class Ops, class FE, class Bit>
inline void ladder_iteration_t(const FE& b, bool b_is_one, const FE& x_base,
                               LadderStateT<FE>& s, const Bit& bit) {
  // Constant-time role swap: after the swap, (x1, z1) is the accumulator
  // to double and (x2, z2) receives the differential add.
  FE::cswap(bit, s.x1, s.x2);
  FE::cswap(bit, s.z1, s.z2);

  FE xa, za, xd, zd;
  ladder_add_t<Ops>(x_base, s.x1, s.z1, s.x2, s.z2, xa, za);
  ladder_double_t<Ops>(b, b_is_one, s.x1, s.z1, xd, zd);
  s.x1 = xd;
  s.z1 = zd;
  s.x2 = xa;
  s.z2 = za;

  FE::cswap(bit, s.x1, s.x2);
  FE::cswap(bit, s.z1, s.z2);
}

}  // namespace medsec::ecc
