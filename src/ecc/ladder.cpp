#include "ecc/ladder.h"

#include "ecc/ladder_arith.h"

namespace medsec::ecc {

// The arithmetic lives in ladder_core.h (the formulas, shared with the
// constant-time audit's TaintFe build) and ladder_arith.h (the wrappers,
// templated over the field policy). Each entry point below reads the
// active field backend once and runs the matching instantiation.

void ladder_add(const Fe& xd, const Fe& x1, const Fe& z1, const Fe& x2,
                const Fe& z2, Fe& x3, Fe& z3) {
  gf2m::with_field_ops([&]<class Ops>(Ops) {
    LadderArith<Ops>::add(xd, x1, z1, x2, z2, x3, z3);
  });
}

void ladder_double(const Fe& b, const Fe& x, const Fe& z, Fe& x3, Fe& z3) {
  gf2m::with_field_ops(
      [&]<class Ops>(Ops) { LadderArith<Ops>::dbl(b, x, z, x3, z3); });
}

Fe random_nonzero_fe(rng::RandomSource& rng) {
  for (;;) {
    bigint::U192 v;
    v.set_limb(0, rng.next_u64());
    v.set_limb(1, rng.next_u64());
    v.set_limb(2, rng.next_u64());
    const Fe fe = Fe::from_bits(v);
    if (!fe.is_zero()) return fe;
  }
}

Point recover_from_ladder(const Curve& curve, const Point& p, const Fe& x1,
                          const Fe& z1, const Fe& x2, const Fe& z2) {
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return LadderArith<Ops>::recover(curve, p, x1, z1, x2, z2);
  });
}

std::vector<Point> recover_from_ladder_batch(
    const Curve& curve, const std::vector<Point>& bases,
    const std::vector<LadderState>& states) {
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return LadderArith<Ops>::recover_batch(curve, bases, states);
  });
}

Scalar constant_length_scalar(const Curve& curve, const Scalar& k0) {
  // r = k mod n through Barrett, then k1 = r + n has bit length t or t + 1
  // (t = bitlen(n)); k1 + n has t + 1 bits whenever k1 has t. Pick under a
  // mask on bit t of k1, so neither the reduction nor the choice branches
  // on the secret.
  const Scalar& n = curve.order();
  const Scalar k1 = curve.scalar_ring().reduce(k0) + n;
  const std::uint64_t short_k1 = k1.bit(n.bit_length()) ? 0 : 1;
  return Scalar::select(short_k1, k1, k1 + n);
}

LadderState ladder_initial_state(const Fe& b, const Fe& x) {
  // lo = P = (x : 1), hi = 2P = (x^4 + b : x^2).
  return gf2m::with_field_ops(
      [&]<class Ops>(Ops) { return LadderArith<Ops>::initial_state(b, x); });
}

LadderState ladder_zero_state(const Fe& x) {
  // lo = O = (1 : 0), hi = P = (x : 1).
  return ladder_zero_state_t(x);
}

void randomize_ladder_state(LadderState& s, const Fe& l1, const Fe& l2) {
  gf2m::with_field_ops(
      [&]<class Ops>(Ops) { LadderArith<Ops>::randomize(s, l1, l2); });
}

void ladder_iteration(const Fe& b, const Fe& x_base, LadderState& s,
                      std::uint64_t bit) {
  gf2m::with_field_ops([&]<class Ops>(Ops) {
    LadderArith<Ops>::iteration(b, x_base, s, bit);
  });
}

LadderState montgomery_ladder_fixed_raw(const Curve& curve,
                                        const WideScalar& k,
                                        std::size_t iterations, const Point& p,
                                        const LadderOptions& options) {
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return LadderArith<Ops>::fixed_raw(curve, k, iterations, p, options);
  });
}

Point montgomery_ladder_fixed(const Curve& curve, const WideScalar& k,
                              std::size_t iterations, const Point& p,
                              const LadderOptions& options) {
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return LadderArith<Ops>::fixed(curve, k, iterations, p, options);
  });
}

LadderState montgomery_ladder_raw(const Curve& curve, const Scalar& k,
                                  const Point& p,
                                  const LadderOptions& options) {
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return LadderArith<Ops>::raw(curve, k, p, options);
  });
}

std::optional<Fe> ladder_x(const Curve& curve, const Scalar& k,
                           const Point& q) {
  return gf2m::with_field_ops(
      [&]<class Ops>(Ops) { return LadderArith<Ops>::x_only(curve, k, q); });
}

Point montgomery_ladder(const Curve& curve, const Scalar& k, const Point& p,
                        const LadderOptions& options) {
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return LadderArith<Ops>::mult(curve, k, p, options);
  });
}

}  // namespace medsec::ecc
