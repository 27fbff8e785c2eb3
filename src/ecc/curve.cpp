#include "ecc/curve.h"

#include <stdexcept>

#include "ecc/point_arith.h"

namespace medsec::ecc {

Curve::Curve(std::string name, const Fe& a, const Fe& b, const Fe& gx,
             const Fe& gy, const Scalar& order, unsigned cofactor)
    : name_(std::move(name)),
      a_(a),
      b_(b),
      g_(Point::affine(gx, gy)),
      order_(order),
      cofactor_(cofactor),
      trace_a_(Fe::trace(a)),
      ring_(order) {
  if (b_.is_zero())
    throw std::invalid_argument("Curve: b = 0 is singular");
  if (!is_on_curve(g_))
    throw std::invalid_argument("Curve: base point not on curve");
  // Sanity for the cofactor-2 halving-criterion subgroup gate: the base
  // point generates the prime-order subgroup, so it must pass the gate.
  if (cofactor_ == 2 && Fe::trace(g_.x) != trace_a_)
    throw std::invalid_argument("Curve: base point fails Tr(x) == Tr(a)");
}

const Curve& Curve::k163() {
  static const Curve c{
      "K-163",
      Fe::one(),
      Fe::one(),
      Fe::from_hex("2FE13C0537BBC11ACAA07D793DE4E6D5E5C94EEE8"),
      Fe::from_hex("289070FB05D38FF58321F2E800536D538CCDAA3D9"),
      Scalar::from_hex("4000000000000000000020108A2E0CC0D99F8A5EF"),
      2};
  return c;
}

const Curve& Curve::b163() {
  static const Curve c{
      "B-163",
      Fe::one(),
      Fe::from_hex("20A601907B8C953CA1481EB10512F78744A3205FD"),
      Fe::from_hex("3F0EBA16286A2D57EA0991168D4994637E8343E36"),
      Fe::from_hex("0D51FBC6C71A0094FA2CDD545B11C5C0C797324F1"),
      Scalar::from_hex("40000000000000000000292FE77E70C12A4234C33"),
      2};
  return c;
}

bool Curve::is_on_curve(const Point& p) const {
  return gf2m::with_field_ops(
      [&]<class Ops>(Ops) { return PointArith<Ops>::is_on_curve(*this, p); });
}

bool Curve::validate_subgroup_point(const Point& p) const {
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return PointArith<Ops>::validate_subgroup_point(*this, p);
  });
}

bool Curve::validate_subgroup_point_exact(const Point& p) const {
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return PointArith<Ops>::validate_subgroup_point_exact(*this, p);
  });
}

Point Curve::negate(const Point& p) const {
  if (p.infinity) return p;
  return Point::affine(p.x, p.x + p.y);
}

Point Curve::frobenius(const Point& p) const {
  return gf2m::with_field_ops(
      [&]<class Ops>(Ops) { return PointArith<Ops>::frobenius(p); });
}

int Curve::frobenius_trace_mu() const {
  // mu = (-1)^(1 - a); meaningful for Koblitz curves (a in {0, 1}, b = 1).
  // K-163 has a = 1 -> mu = +1.
  return a_ == Fe::one() ? 1 : -1;
}

Point Curve::add(const Point& p, const Point& q) const {
  return gf2m::with_field_ops(
      [&]<class Ops>(Ops) { return PointArith<Ops>::add(*this, p, q); });
}

Point Curve::dbl(const Point& p) const {
  return gf2m::with_field_ops(
      [&]<class Ops>(Ops) { return PointArith<Ops>::dbl(*this, p); });
}

Point Curve::scalar_mult_reference(const Scalar& k, const Point& p) const {
  Point acc = Point::at_infinity();
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = dbl(acc);
    if (k.bit(i)) acc = add(acc, p);
  }
  return acc;
}

Curve::Compressed Curve::compress(const Point& p) const {
  if (p.infinity)
    throw std::invalid_argument("compress: cannot compress infinity");
  return gf2m::with_field_ops(
      [&]<class Ops>(Ops) { return PointArith<Ops>::compress(p); });
}

std::optional<Point> Curve::decompress(const Compressed& c) const {
  return gf2m::with_field_ops(
      [&]<class Ops>(Ops) { return PointArith<Ops>::decompress(*this, c); });
}

}  // namespace medsec::ecc
