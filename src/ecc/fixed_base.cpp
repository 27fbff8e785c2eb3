#include "ecc/fixed_base.h"

#include <stdexcept>

#include "ecc/curve_tables.h"
#include "ecc/point_arith.h"

namespace medsec::ecc {

// The formulas live in point_arith.h; each entry point below reads the
// active field backend once and runs the matching instantiation.

LdPoint LdPoint::from_affine(const Point& p) {
  if (p.infinity) return LdPoint::infinity();
  return LdPoint{p.x, p.y, Fe::one()};
}

Point LdPoint::to_affine() const {
  return gf2m::with_field_ops(
      [&]<class Ops>(Ops) { return PointArith<Ops>::to_affine(*this); });
}

LdPoint ld_double(const Curve& curve, const LdPoint& p) {
  return gf2m::with_field_ops(
      [&]<class Ops>(Ops) { return PointArith<Ops>::ld_double(curve, p); });
}

LdPoint ld_add_affine(const Curve& curve, const LdPoint& p, const Point& q) {
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return PointArith<Ops>::ld_add_affine(curve, p, q);
  });
}

FixedBaseComb::FixedBaseComb(const Curve& curve, const Point& base)
    : curve_(curve), base_(base) {
  if (base.infinity)
    throw std::invalid_argument("FixedBaseComb: base is infinity");
  table_ = gf2m::with_field_ops([&]<class Ops>(Ops) {
    return PointArith<Ops>::comb_table(curve, base);
  });
}

Point FixedBaseComb::mult(const Scalar& k) const {
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return PointArith<Ops>::comb_mult(curve_, table_, k);
  });
}

Point FixedBaseComb::mult_ct(const Scalar& k) const {
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return PointArith<Ops>::comb_mult_ct(curve_, table_, k);
  });
}

Point scalar_mult_ld(const Curve& curve, const Scalar& k, const Point& p) {
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return PointArith<Ops>::scalar_mult_ld(curve, k, p);
  });
}

const FixedBaseComb& generator_comb(const Curve& curve) {
  return detail::curve_tables(curve).comb;
}

}  // namespace medsec::ecc
