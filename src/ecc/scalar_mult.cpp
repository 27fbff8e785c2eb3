#include "ecc/scalar_mult.h"

#include <array>
#include <bit>
#include <stdexcept>

#include "ecc/koblitz.h"
#include "ecc/point_arith.h"

namespace medsec::ecc {

namespace {

Point double_and_add(const Curve& curve, const Scalar& k, const Point& p,
                     MultStats* stats) {
  if (stats) stats->op_pattern.reserve(k.bit_length());
  Point acc = Point::at_infinity();
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = curve.dbl(acc);
    if (stats) {
      ++stats->point_doubles;
      ++stats->op_slots;
    }
    const bool bit = k.bit(i);
    if (bit) {
      acc = curve.add(acc, p);
      if (stats) {
        ++stats->point_adds;
        ++stats->op_slots;
      }
    }
    if (stats) stats->op_pattern.push_back(bit ? 1 : 0);
  }
  return acc;
}

Point wnaf_mult(const Curve& curve, const Scalar& k, const Point& p,
                unsigned width, MultStats* stats) {
  const std::vector<int> digits = wnaf_digits(k, width);
  if (stats) stats->op_pattern.reserve(digits.size());
  // Precompute odd multiples P, 3P, ..., (2^(w-1)-1)P.
  std::vector<Point> odd(std::size_t{1} << (width - 2));
  odd[0] = p;
  const Point p2 = curve.dbl(p);
  for (std::size_t i = 1; i < odd.size(); ++i)
    odd[i] = curve.add(odd[i - 1], p2);

  Point acc = Point::at_infinity();
  for (std::size_t i = digits.size(); i-- > 0;) {
    acc = curve.dbl(acc);
    if (stats) {
      ++stats->point_doubles;
      ++stats->op_slots;
    }
    const int d = digits[i];
    if (d != 0) {
      const Point& m = odd[static_cast<std::size_t>((d > 0 ? d : -d) / 2)];
      acc = curve.add(acc, d > 0 ? m : curve.negate(m));
      if (stats) {
        ++stats->point_adds;
        ++stats->op_slots;
      }
    }
    if (stats) stats->op_pattern.push_back(d != 0 ? 1 : 0);
  }
  return acc;
}

}  // namespace

MsmTable::MsmTable(const Curve& curve, std::span<const MsmTerm> terms,
                   const Point& base)
    : curve_(&curve) {
  gf2m::with_field_ops([&]<class Ops>(Ops) {
    PointArith<Ops>::msm_table(curve, terms, base, *this);
  });
}

Point MsmTable::evaluate(std::size_t first, std::size_t last,
                         const Scalar& base_k) const {
  if (first > last || last > lengths_.size())
    throw std::out_of_range("MsmTable::evaluate: term range");
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return PointArith<Ops>::msm_evaluate(*curve_, *this, first, last, base_k);
  });
}

Point multi_scalar_mult(const Curve& curve, std::span<const MsmTerm> terms) {
  return MsmTable(curve, terms).evaluate(0, terms.size(), Scalar{});
}

Point double_scalar_mult(const Curve& curve, const Scalar& k1, const Point& p1,
                         const Scalar& k2, const Point& p2) {
  const MsmTerm terms[2] = {{k1, p1}, {k2, p2}};
  return multi_scalar_mult(curve, terms);
}

std::vector<int> wnaf_digits(const Scalar& k0, unsigned width) {
  if (width < 2 || width > 8)
    throw std::invalid_argument("wnaf_digits: width must be in [2, 8]");
  // Digits are decided in place on the limbs of k, lowest first, without
  // shifting k: a run of zero bits is skipped with countr_zero, and each
  // nonzero digit clears its w-bit window. One spare limb keeps the carry
  // a negative digit pushes past the top bit.
  constexpr std::size_t kLimbs = Scalar::kLimbs + 1;
  std::array<std::uint64_t, kLimbs> k{};
  for (std::size_t l = 0; l < Scalar::kLimbs; ++l) k[l] = k0.limb(l);
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;  // 2^w - 1
  const std::uint64_t half = std::uint64_t{1} << (width - 1);  // 2^(w-1)
  std::vector<int> out(k0.bit_length() + 1, 0);  // at most bitlen + 1 digits
  std::size_t len = 0;
  for (std::size_t i = 0;;) {
    std::size_t l = i / 64;
    if (l >= kLimbs) break;
    std::uint64_t rest = k[l] >> (i % 64);
    while (rest == 0 && ++l < kLimbs) {
      rest = k[l];
      i = 64 * l;
    }
    if (rest == 0) break;
    i += static_cast<std::size_t>(std::countr_zero(rest));

    // r = k mod 2^w is the window at bit i (it may straddle two limbs);
    // the digit is r, or r - 2^w when r >= 2^(w-1). Subtracting the digit
    // clears the window and, for a negative digit, carries 2^(i+w) in.
    const std::size_t li = i / 64, bi = i % 64;
    const bool straddles = bi + width > 64 && li + 1 < kLimbs;
    std::uint64_t r = k[li] >> bi;
    if (straddles) r |= k[li + 1] << (64 - bi);
    r &= mask;
    k[li] &= ~(mask << bi);
    if (straddles) k[li + 1] &= ~(mask >> (64 - bi));
    int digit = static_cast<int>(r);
    if (r >= half) {
      digit -= static_cast<int>(mask + 1);
      const std::size_t p = i + width;
      std::uint64_t carry = std::uint64_t{1} << (p % 64);
      for (std::size_t c = p / 64; carry != 0 && c < kLimbs; ++c) {
        k[c] += carry;
        carry = k[c] < carry ? 1 : 0;
      }
    }
    out[i] = digit;
    len = i + 1;
    i += width;  // the next w - 1 digits are zero
  }
  out.resize(len);
  return out;
}

Point scalar_mult(const Curve& curve, const Scalar& k, const Point& p,
                  const MultOptions& options) {
  switch (options.algorithm) {
    case MultAlgorithm::kDoubleAndAdd:
      return double_and_add(curve, curve.scalar_ring().reduce(k), p,
                            options.stats);

    case MultAlgorithm::kWnaf:
      return wnaf_mult(curve, curve.scalar_ring().reduce(k), p, /*width=*/4,
                       options.stats);

    case MultAlgorithm::kTauNaf:
      return tau_naf_mult(curve, k, p, options.stats);

    case MultAlgorithm::kMontgomeryLadder:
    case MultAlgorithm::kLadderRpc: {
      const bool rpc = options.algorithm == MultAlgorithm::kLadderRpc;
      if (rpc && options.rng == nullptr)
        throw std::invalid_argument("scalar_mult: kLadderRpc requires an RNG");
      LadderOptions lo;
      lo.randomize_z = rpc;
      lo.rng = options.rng;
      lo.observer = options.observer;
      if (options.stats != nullptr) {
        // The ladder pads the scalar to a fixed order.bit_length()+1 bits
        // (see ladder.cpp), so the iteration count is a curve constant:
        // the schedule depends on nothing the adversary doesn't know.
        const std::size_t iters = curve.order().bit_length();
        options.stats->ladder_iterations = iters;
        options.stats->op_slots = iters;
        options.stats->op_pattern.assign(iters, 2);  // uniform schedule
      }
      return montgomery_ladder(curve, k, p, lo);
    }
  }
  throw std::logic_error("scalar_mult: unknown algorithm");
}

}  // namespace medsec::ecc
