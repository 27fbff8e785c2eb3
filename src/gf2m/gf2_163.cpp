#include "gf2m/gf2_163.h"

#include <array>
#include <bit>
#include <stdexcept>

#include "gf2m/backend.h"
#include "gf2m/field_ops.h"
#include "gf2m/reduce_163.h"

namespace medsec::gf2m {

namespace {
constexpr std::uint64_t kTopMask = 0x7FFFFFFFFULL;  // low 35 bits of limb 2
}  // namespace

Gf163 Gf163::from_hex(std::string_view hex) {
  return from_bits(bigint::U192::from_hex(hex));
}

std::string Gf163::to_hex() const { return to_bits().to_hex(); }

Gf163 Gf163::from_bits(const bigint::U192& v) {
  return Gf163{v.limb(0), v.limb(1), v.limb(2) & kTopMask};
}

bigint::U192 Gf163::to_bits() const {
  bigint::U192 out;
  out.set_limb(0, limb_[0]);
  out.set_limb(1, limb_[1]);
  out.set_limb(2, limb_[2]);
  return out;
}

Gf163 Gf163::reduce_product(const std::array<std::uint64_t, 6>& prod) {
  std::uint64_t out[3];
  reduce326(prod.data(), out);  // shared shift-reduce fold (reduce_163.h)
  return Gf163{out[0], out[1], out[2]};
}

namespace {

/// Precomputed table for the linear map a -> a^(2^n) at a fixed stride n.
///
/// Frobenius iterates are GF(2)-linear, so a^(2^n) is the XOR over the set
/// bits of a of e_i^(2^n) for basis elements e_i = x^i. The table groups the
/// 163 input bits into 41 4-bit windows; applying the map is 41 table
/// lookups + XORs regardless of n — this is what turns the Itoh–Tsujii
/// chain's 162 serial squarings into a handful of sub-100ns steps.
struct MultiSqrTable {
  static constexpr std::size_t kWindows = 41;  // ceil(163 / 4)
  std::array<std::array<Gf163, 16>, kWindows> t{};

  explicit MultiSqrTable(unsigned n) {
    for (std::size_t c = 0; c < kWindows; ++c) {
      for (unsigned bit = 0; bit < 4; ++bit) {
        const std::size_t pos = 4 * c + bit;
        if (pos >= Gf163::kBits) break;
        // basis = (x^pos)^(2^n), by n plain squarings (table build only).
        std::uint64_t l[3] = {0, 0, 0};
        l[pos / 64] = std::uint64_t{1} << (pos % 64);
        Gf163 basis{l[0], l[1], l[2]};
        for (unsigned s = 0; s < n; ++s) basis = Gf163::sqr(basis);
        const unsigned hi = 1u << bit;
        for (unsigned v = 0; v < hi; ++v) t[c][v | hi] = t[c][v] + basis;
      }
    }
  }

  Gf163 apply(const Gf163& a) const {
    Gf163 acc;
    for (std::size_t c = 0; c < kWindows; ++c) {
      const std::size_t off = 4 * c;
      const unsigned nib =
          static_cast<unsigned>(a.limb(off / 64) >> (off % 64)) & 0xF;
      acc += t[c][nib];
    }
    return acc;
  }
};

/// Tables for the strides of the Itoh–Tsujii addition chain
/// (1 -> 2 -> 4 -> 5 -> 10 -> 20 -> 40 -> 80 -> 81 -> 162) plus sqrt
/// (162 = 81 + 81), i.e. detail::kMultiSqrStrides. Built lazily on first
/// use (thread-safe magic statics).
const MultiSqrTable* msqr_table(unsigned n) {
  switch (n) {
    case 5: {
      static const MultiSqrTable t{5};
      return &t;
    }
    case 10: {
      static const MultiSqrTable t{10};
      return &t;
    }
    case 20: {
      static const MultiSqrTable t{20};
      return &t;
    }
    case 40: {
      static const MultiSqrTable t{40};
      return &t;
    }
    case 81: {
      static const MultiSqrTable t{81};
      return &t;
    }
    default:
      return nullptr;
  }
}

}  // namespace

Gf163 detail::multi_sqr(const Gf163& a, unsigned stride) {
  return msqr_table(stride)->apply(a);
}

Gf163 Gf163::sqr_n(Gf163 a, unsigned n) {
  return with_field_ops([&]<class Ops>(Ops) { return Ops::sqr_n(a, n); });
}

Gf163 Gf163::inv(const Gf163& a) {
  return with_field_ops([&]<class Ops>(Ops) { return Ops::inv(a); });
}

void Gf163::batch_inv(Gf163* elems, std::size_t n) {
  with_field_ops([&]<class Ops>(Ops) { Ops::batch_inv(elems, n); });
}

Gf163 Gf163::sqrt(const Gf163& a) {
  // sqrt(a) = a^(2^162): squaring is a field automorphism and the Frobenius
  // has order 163, so 162 squarings invert one squaring. With the
  // multi-squaring tables this is two 81-stride applications.
  return sqr_n(a, 162);
}

namespace {

Gf163 basis_element(unsigned i) {  // x^i
  return Gf163{i < 64 ? (1ull << i) : 0,
               (i >= 64 && i < 128) ? (1ull << (i - 64)) : 0,
               i >= 128 ? (1ull << (i - 128)) : 0};
}

/// The defining sum Tr(a) = sum_{i=0}^{162} a^(2^i): reference path, used
/// once to build the O(1) mask below (and self-checking: a non-binary
/// result means the field arithmetic is broken).
int trace_generic(const Gf163& a) {
  Gf163 acc = a;
  Gf163 t = a;
  for (unsigned i = 1; i < Gf163::kBits; ++i) {
    t = Gf163::sqr(t);
    acc += t;
  }
  if (acc.is_zero()) return 0;
  if (acc == Gf163::one()) return 1;
  throw std::logic_error("Gf163::trace: non-binary trace (field bug)");
}

/// The defining sum H(c) = sum_{i=0}^{(m-1)/2} c^(2^(2i)), m = 163 odd.
Gf163 half_trace_generic(const Gf163& a) {
  Gf163 acc = a;
  Gf163 t = a;
  for (unsigned i = 1; i <= (Gf163::kBits - 1) / 2; ++i) {
    t = Gf163::sqr(Gf163::sqr(t));
    acc += t;
  }
  return acc;
}

}  // namespace

int Gf163::trace(const Gf163& a) {
  // The trace is F_2-linear, so Tr(a) = parity(a & T) with mask bit
  // T_i = Tr(x^i), built once from the generic 162-squaring sum. One AND +
  // popcount instead of 162 squarings — this sits on the hot path of the
  // engine layer's point decoding and cofactor-2 subgroup gate. (For this
  // pentanomial the mask is just bits {0, 157}, but deriving it keeps the
  // code generic in the reduction polynomial.)
  static const std::array<std::uint64_t, kLimbs> kMask = [] {
    std::array<std::uint64_t, kLimbs> m{};
    for (unsigned i = 0; i < kBits; ++i)
      if (trace_generic(basis_element(i))) m[i / 64] |= 1ull << (i % 64);
    return m;
  }();
  const std::uint64_t acc = (a.limb(0) & kMask[0]) ^ (a.limb(1) & kMask[1]) ^
                            (a.limb(2) & kMask[2]);
  return static_cast<int>(std::popcount(acc) & 1);
}

Gf163 Gf163::half_trace(const Gf163& a) {
  // The half-trace is F_2-linear too: H(a) = xor over set bits a_i of
  // H(x^i), with the 163-entry basis table built once from the generic
  // double-squaring sum. ~20 XOR-accumulations for a random element
  // instead of 162 squarings; together with the batch-inverted
  // denominators this is what makes fleet-scale point decompression cheap.
  static const std::array<Gf163, kBits> kTable = [] {
    std::array<Gf163, kBits> t{};
    for (unsigned i = 0; i < kBits; ++i)
      t[i] = half_trace_generic(basis_element(i));
    return t;
  }();
  Gf163 acc;
  for (std::size_t l = 0; l < kLimbs; ++l) {
    std::uint64_t w = a.limb(l);
    while (w != 0) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(w));
      w &= w - 1;
      acc += kTable[64 * l + b];
    }
  }
  return acc;
}

}  // namespace medsec::gf2m
