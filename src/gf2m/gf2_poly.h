// gf2_poly.h — runtime-width polynomials over GF(2).
//
// A simple, obviously-correct reference implementation of GF(2)[x] and
// GF(2^m) arithmetic for arbitrary m. It is the oracle against which the
// fixed-width Gf163 fast path and the bit-serial/digit-serial hardware
// models are cross-checked, and it backs generic-field experiments (e.g.
// toy curves over small fields in tests).
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

namespace medsec::gf2m {

/// A polynomial over GF(2), stored as 64-bit words, little-endian.
class Gf2Poly {
 public:
  Gf2Poly() = default;
  explicit Gf2Poly(std::uint64_t low_word) : word_{low_word} { trim(); }

  /// Polynomial with the given exponents set, e.g. {163,7,6,3,0}.
  static Gf2Poly from_exponents(const std::vector<unsigned>& exps);
  static Gf2Poly from_hex(const std::string& hex);
  std::string to_hex() const;

  bool is_zero() const { return word_.empty(); }
  /// Degree of the polynomial; -1 for the zero polynomial.
  int degree() const;
  bool bit(std::size_t i) const;
  void set_bit(std::size_t i);

  std::uint64_t word(std::size_t i) const {
    return i < word_.size() ? word_[i] : 0;
  }

  friend bool operator==(const Gf2Poly& a, const Gf2Poly& b) {
    return a.word_ == b.word_;
  }

  friend Gf2Poly operator+(const Gf2Poly& a, const Gf2Poly& b);  // XOR
  friend Gf2Poly operator*(const Gf2Poly& a, const Gf2Poly& b);  // carry-less
  Gf2Poly shifted_left(std::size_t n) const;

  /// Remainder of a modulo m (polynomial long division). m != 0.
  static Gf2Poly mod(Gf2Poly a, const Gf2Poly& m);
  /// (a * b) mod m.
  static Gf2Poly mulmod(const Gf2Poly& a, const Gf2Poly& b, const Gf2Poly& m);
  /// Inverse of a modulo m via extended Euclid; m irreducible, a != 0.
  static Gf2Poly invmod(const Gf2Poly& a, const Gf2Poly& m);
  /// gcd of two polynomials.
  static Gf2Poly gcd(Gf2Poly a, Gf2Poly b);
  /// Rabin's irreducibility test (deterministic) for degree-m poly.
  static bool is_irreducible(const Gf2Poly& f);

 private:
  void trim();
  std::vector<std::uint64_t> word_;
};

}  // namespace medsec::gf2m
