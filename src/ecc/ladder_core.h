// ladder_core.h — the Montgomery-ladder formulas, templated over the
// field arithmetic.
//
// THE one definition of the López–Dahab x-only add / double / iteration
// arithmetic and of the §7 Z-randomization. Its instantiations:
//   * FE = gf2m::Gf163, Ops = ValueOps over a gf2m/field_ops.h policy:
//     the scalar ladder (LadderArith in ladder_arith.h, behind the
//     ladder.h wrappers) and the shuffled ladder (shuffled_ladder.h);
//   * FE = Ops = gf2m::Gf163xN: the lockstep lanes (ladder_many.cpp) and
//     the DPA hypothesis engine (sidechannel/dpa.cpp), every field
//     operation one batched call across N ladders;
//   * FE = ctaudit::TaintFe, Ops = ValueOps<TaintFe>: the secret-taint
//     audit.
// So the audit runs the formulas and schedule the victim and the lanes
// run — a secret-dependent branch or table index introduced here shows
// up in the taint report — and lane i of a lockstep ladder performs the
// field operations (same fusions, same order) of the scalar ladder on
// lane i's inputs, by construction. Outside the audit stay the lane
// backends' kernels behind Gf163xN.
//
// Ops contract: static mul(a, b, o), sqr(a, o), mul_add_mul(a, b, c, d, o)
// = a·b + c·d, sqr_add_mul(a, b, c, o) = a^2 + b·c (one reduction each),
// add(a, b, o) and cswap(bit, a, b); an output may alias an input (the
// shape of Gf163xN's static methods). FE: default-constructible; the
// start states also need FE::one() / FE::zero(). Ops is named at every
// call; FE and the cswap selector Bit are deduced (std::uint64_t,
// Tainted<std::uint64_t> in the audit, one byte per lane for Gf163xN).
// cswap must consume Bit branch-free (masking), which is exactly what the
// taint wrapper verifies. The templates and the ValueOps members are
// always_inline: GCC otherwise stops inlining them into the scalar loop.
//
// The doubling takes the curve's b with the public flag `b_is_one`
// (Curve::b_is_one): on K-163 (b = 1) it squares X^2 + Z^2 instead of
// multiplying Z^4 by b. The audit's ladder-classic row runs K-163 and so
// covers the b = 1 branch the tag executes; ladder-blinded covers the
// general-b branch on B-163.
#pragma once

#include <cstddef>
#include <initializer_list>

namespace medsec::ecc {

/// The ladder's working state over any field-element type:
/// (x1 : z1) = k_high·P, (x2 : z2) = (k_high + 1)·P.
template <class FE>
struct LadderStateT {
  FE x1, z1, x2, z2;
};

/// The registers one ladder iteration works in besides its state (t, u, s
/// for the add; xs, zs, zss for the doubling). Scalar callers keep them
/// on the stack; lane callers keep them sized across calls.
template <class FE>
struct LadderTempsT {
  FE t, u, s, xs, zs, zss;

  void resize(std::size_t n) {
    for (FE* r : {&t, &u, &s, &xs, &zs, &zss}) r->resize(n);
  }
};

/// The Ops contract over a value-returning field policy P (a
/// gf2m/field_ops.h FieldOps, ctaudit::TaintFe): P's four products, and
/// FE's operator+ and cswap.
template <class P>
struct ValueOps {
  template <class FE>
  [[gnu::always_inline]] static void mul(const FE& a, const FE& b, FE& o) {
    o = P::mul(a, b);
  }
  template <class FE>
  [[gnu::always_inline]] static void sqr(const FE& a, FE& o) {
    o = P::sqr(a);
  }
  template <class FE>
  [[gnu::always_inline]] static void mul_add_mul(
      const FE& a, const FE& b, const FE& c, const FE& d, FE& o) {
    o = P::mul_add_mul(a, b, c, d);
  }
  template <class FE>
  [[gnu::always_inline]] static void sqr_add_mul(const FE& a, const FE& b,
                                                 const FE& c, FE& o) {
    o = P::sqr_add_mul(a, b, c);
  }
  template <class FE>
  [[gnu::always_inline]] static void add(const FE& a, const FE& b, FE& o) {
    o = a + b;
  }
  template <class Bit, class FE>
  [[gnu::always_inline]] static void cswap(const Bit& bit, FE& a, FE& b) {
    FE::cswap(bit, a, b);
  }
};

/// x-only differential addition: Z3 = (X1 Z2 + X2 Z1)^2,
/// X3 = x_diff·Z3 + (X1 Z2)(X2 Z1). (x3, z3) may be (x2, z2): x1, z1, x2
/// and z2 are read before either output is written.
template <class Ops, class FE>
[[gnu::always_inline]] inline void ladder_add_t(
    const FE& xd, const FE& x1, const FE& z1, const FE& x2, const FE& z2,
    FE& x3, FE& z3, LadderTempsT<FE>& r) {
  Ops::mul(x1, z2, r.t);
  Ops::mul(x2, z1, r.u);
  Ops::add(r.t, r.u, r.s);
  Ops::sqr(r.s, z3);
  Ops::mul_add_mul(xd, z3, r.t, r.u, x3);  // xd·z3 + t·u, one reduction
}

/// x-only doubling: X3 = X^4 + b Z^4, Z3 = X^2 Z^2. (x3, z3) may be
/// (x, z).
template <class Ops, class FE>
[[gnu::always_inline]] inline void ladder_double_t(
    const FE& b, bool b_is_one, const FE& x, const FE& z, FE& x3, FE& z3,
    LadderTempsT<FE>& r) {
  Ops::sqr(x, r.xs);
  Ops::sqr(z, r.zs);
  Ops::mul(r.xs, r.zs, z3);
  if (b_is_one) {
    Ops::add(r.xs, r.zs, r.zss);
    Ops::sqr(r.zss, x3);  // X^4 + Z^4 = (X^2 + Z^2)^2
  } else {
    Ops::sqr(r.zs, r.zss);
    Ops::sqr_add_mul(r.xs, b, r.zss, x3);  // one reduction
  }
}

/// Unrandomized initial state for base-point x:
/// lo = P = (x : 1), hi = 2P = (x^4 + b : x^2).
template <class Ops, class FE>
inline LadderStateT<FE> ladder_initial_state_t(const FE& b, const FE& x) {
  LadderStateT<FE> s{x, FE::one(), FE{}, FE{}};
  Ops::sqr(x, s.x2);
  Ops::sqr(s.x2, s.x2);
  Ops::add(s.x2, b, s.x2);
  Ops::sqr(x, s.z2);
  return s;
}

/// Neutral start state (lo, hi) = (O, P) = ((1 : 0), (x : 1)) — correct
/// for scalars with leading zero bits (the blinded fixed-length entry).
template <class FE>
inline LadderStateT<FE> ladder_zero_state_t(const FE& x) {
  return LadderStateT<FE>{FE::one(), FE::zero(), x, FE::one()};
}

/// §7 randomized projective coordinates: (x1, z1) *= l1, (x2, z2) *= l2.
template <class Ops, class FE>
[[gnu::always_inline]] inline void ladder_randomize_t(
    LadderStateT<FE>& s, const FE& l1, const FE& l2) {
  Ops::mul(s.x1, l1, s.x1);
  Ops::mul(s.z1, l1, s.z1);
  Ops::mul(s.x2, l2, s.x2);
  Ops::mul(s.z2, l2, s.z2);
}

/// One ladder iteration for key bit `bit` (cswap / add+double / cswap).
template <class Ops, class FE, class Bit>
[[gnu::always_inline]] inline void ladder_iteration_t(
    const FE& b, bool b_is_one, const FE& x_base, LadderStateT<FE>& s,
    const Bit& bit, LadderTempsT<FE>& r) {
  // Constant-time role swap: after the swap, (x1, z1) is the accumulator
  // to double and (x2, z2) receives the differential add.
  Ops::cswap(bit, s.x1, s.x2);
  Ops::cswap(bit, s.z1, s.z2);

  // In place: the add reads (x1, z1) before the doubling overwrites them.
  ladder_add_t<Ops>(x_base, s.x1, s.z1, s.x2, s.z2, s.x2, s.z2, r);
  ladder_double_t<Ops>(b, b_is_one, s.x1, s.z1, s.x1, s.z1, r);

  Ops::cswap(bit, s.x1, s.x2);
  Ops::cswap(bit, s.z1, s.z2);
}

}  // namespace medsec::ecc
