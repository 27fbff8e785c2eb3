// field_ops.h — the field-arithmetic policies the formula layers are
// templated over, and the once-per-operation dispatch into them.
//
// The paper's co-processor runs the López–Dahab formulas back to back on
// one carry-less multiplier. This model does the same: every formula
// above the field — Itoh–Tsujii inversion and batch inversion here, the
// point formulas, comb, MSM and decoders (ecc/point_arith.h), the ladder
// wrappers (ecc/ladder_arith.h) and the shuffled ladder
// (sidechannel/shuffled_ladder.h) — is a template over one of two
// policies. Each is FieldOps over a field kernel: a product type `Wide`,
// the product and square into it, and the fold back to 163 bits.
//
//   KaratsubaOps — WordKernel over mul326_karatsuba / sqr326_portable
//                  (clmul.h): six words, the shift fold reduce326;
//   ClmulOps     — on x86-64, hwclmul::XmmKernel (clmul_hw.h): three XMM
//                  registers, the clmul fold reduce326_clmul; on AArch64,
//                  WordKernel over the PMULL kernel.
//
// Both folds come from the one pentanomial in reduce_163.h, and reduction
// mod f is unique, so the two policies are bit for bit interchangeable.
// A public entry point (a scalar multiplication, an MSM, a batch decode,
// an inversion) reads the active backend once through with_field_ops()
// and runs the matching instantiation, inside which every field operation
// is an inlined kernel call. set_backend() therefore takes effect at the
// next top-level call.
//
// ISA confinement: every ClmulOps instantiation lives in
// clmul_instances.cpp, the one translation unit compiled with -mpclmul
// (+crypto on AArch64). The `extern template` declarations next to each
// template keep every other translation unit from instantiating them, so
// only that object (and the lane kernels in lanes.cpp, which carry their
// own target attributes) contains carry-less multiply instructions —
// bench/check_isa_confinement.py checks this on the built library. The
// ClmulOps policy must therefore never be called directly outside those
// templates: other code reaches it through with_field_ops() or through
// the backend vtable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gf2m/arch.h"
#include "gf2m/backend.h"
#include "gf2m/clmul.h"
#include "gf2m/clmul_hw.h"
#include "gf2m/gf2_163.h"
#include "gf2m/reduce_163.h"

#if MEDSEC_ARCH_X86_64 || MEDSEC_ARCH_AARCH64
#define MEDSEC_HAVE_CLMUL_OPS 1
#endif

namespace medsec::gf2m {

namespace detail {
/// The Itoh–Tsujii chain strides that have multi-squaring tables.
inline constexpr unsigned kMultiSqrStrides[] = {81, 40, 20, 10, 5};
/// a^(2^stride) for a stride in kMultiSqrStrides: one table application,
/// no multiplication (so no policy). Defined in gf2_163.cpp.
Gf163 multi_sqr(const Gf163& a, unsigned stride);
}  // namespace detail

/// A field kernel over an unreduced kernel pair: the product as six
/// words, folded by the shift fold.
template <MulFn Mul326, SqrFn Sqr326>
struct WordKernel {
  struct Wide {
    std::uint64_t w[6];

    friend Wide operator^(Wide a, const Wide& b) {
      for (std::size_t i = 0; i < 6; ++i) a.w[i] ^= b.w[i];
      return a;
    }
  };

  static Wide mul(const std::uint64_t a[3], const std::uint64_t b[3]) {
    Wide p;
    Mul326(a, b, p.w);
    return p;
  }
  static Wide sqr(const std::uint64_t a[3]) {
    Wide p;
    Sqr326(a, p.w);
    return p;
  }
  static Gf163 fold(const Wide& p) {
    std::uint64_t r[3];
    reduce326(p.w, r);
    return Gf163{r[0], r[1], r[2]};
  }
};

/// Field arithmetic over one field kernel. The four single operations are
/// inline; the formulas built from them are defined out of line below, so
/// `extern template` can keep them out of a translation unit.
template <class Kernel>
struct FieldOps {
  static Gf163 mul(const Gf163& a, const Gf163& b) {
    return Kernel::fold(Kernel::mul(a.limbs(), b.limbs()));
  }

  static Gf163 sqr(const Gf163& a) {
    return Kernel::fold(Kernel::sqr(a.limbs()));
  }

  /// a·b + c·d with one reduction (the unreduced products are XORed).
  static Gf163 mul_add_mul(const Gf163& a, const Gf163& b, const Gf163& c,
                           const Gf163& d) {
    return Kernel::fold(Kernel::mul(a.limbs(), b.limbs()) ^
                        Kernel::mul(c.limbs(), d.limbs()));
  }

  /// a^2 + b·c with one reduction.
  static Gf163 sqr_add_mul(const Gf163& a, const Gf163& b, const Gf163& c) {
    return Kernel::fold(Kernel::sqr(a.limbs()) ^
                        Kernel::mul(b.limbs(), c.limbs()));
  }

  /// See Gf163::inv / batch_inv / sqr_n.
  static Gf163 inv(const Gf163& a);
  static void batch_inv(Gf163* elems, std::size_t n);
  static Gf163 sqr_n(Gf163 a, unsigned n);
};

template <class K>
Gf163 FieldOps<K>::sqr_n(Gf163 a, unsigned n) {
  for (const unsigned stride : detail::kMultiSqrStrides)
    for (; n >= stride; n -= stride) a = detail::multi_sqr(a, stride);
  for (; n > 0; --n) a = sqr(a);
  return a;
}

template <class K>
Gf163 FieldOps<K>::inv(const Gf163& a) {
  // Itoh–Tsujii: a^{-1} = (a^(2^162 - 1))^2, with the addition chain
  // 1 -> 2 -> 4 -> 5 -> 10 -> 20 -> 40 -> 80 -> 81 -> 162 for the
  // exponents beta_k = a^(2^k - 1). The sqr_n steps with stride >= 5 hit
  // the precomputed multi-squaring tables.
  const Gf163 b1 = a;
  const Gf163 b2 = mul(sqr(b1), b1);
  const Gf163 b4 = mul(sqr_n(b2, 2), b2);
  const Gf163 b5 = mul(sqr(b4), b1);
  const Gf163 b10 = mul(sqr_n(b5, 5), b5);
  const Gf163 b20 = mul(sqr_n(b10, 10), b10);
  const Gf163 b40 = mul(sqr_n(b20, 20), b20);
  const Gf163 b80 = mul(sqr_n(b40, 40), b40);
  const Gf163 b81 = mul(sqr(b80), b1);
  const Gf163 b162 = mul(sqr_n(b81, 81), b81);
  return sqr(b162);
}

template <class K>
void FieldOps<K>::batch_inv(Gf163* elems, std::size_t n) {
  if (n == 0) return;
  if (n == 1) {
    if (!elems[0].is_zero()) elems[0] = inv(elems[0]);
    return;
  }
  // Forward pass: prefix[i] = product of the nonzero elements before i.
  std::vector<Gf163> prefix(n);
  Gf163 acc = Gf163::one();
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i] = acc;
    if (!elems[i].is_zero()) acc = mul(acc, elems[i]);
  }
  // One inversion for the whole batch (acc == 1 if every element was zero).
  Gf163 inv_acc = inv(acc);
  // Backward pass: peel one element off the running inverse at a time.
  for (std::size_t i = n; i-- > 0;) {
    if (elems[i].is_zero()) continue;
    const Gf163 original = elems[i];
    elems[i] = mul(inv_acc, prefix[i]);
    inv_acc = mul(inv_acc, original);
  }
}

using KaratsubaOps = FieldOps<WordKernel<&mul326_karatsuba, &sqr326_portable>>;

#if MEDSEC_HAVE_CLMUL_OPS
#if MEDSEC_ARCH_X86_64
using ClmulKernel = hwclmul::XmmKernel;
#else
using ClmulKernel =
    WordKernel<&hwclmul::mul326_clmul, &hwclmul::sqr326_clmul>;
#endif
using ClmulOps = FieldOps<ClmulKernel>;
extern template struct FieldOps<ClmulKernel>;
namespace detail {
/// The clmul backend's vtable, defined in clmul_instances.cpp.
extern const BackendVTable kClmulVTable;
}  // namespace detail
#endif

namespace detail {
/// v, written to the return slot as one 16-byte store (limbs 0-1) and one
/// 8-byte store (limb 2): the shape in which callers copy a returned
/// Gf163, so the copy forwards from the stores instead of waiting for
/// them to retire. Three 8-byte stores cost the per-operation API about a
/// fifth of its throughput. Only the out-of-line vtable entries use it;
/// inlined formulas keep their limbs in registers.
inline Gf163 store_for_return(const Gf163& v) {
  using Pair = std::uint64_t __attribute__((vector_size(16)));
  const Pair lo = {v.limb(0), v.limb(1)};
  const std::uint64_t hi = v.limb(2);
  Gf163 out;
  std::memcpy(static_cast<void*>(&out), &lo, sizeof lo);
  std::memcpy(reinterpret_cast<unsigned char*>(&out) + sizeof lo, &hi,
              sizeof hi);
  return out;
}
}  // namespace detail

/// A backend vtable: the backend's unreduced kernels plus the reduced
/// single operations of its policy Ops behind the Gf163 per-operation API.
template <class Ops>
constexpr BackendVTable make_backend_vtable(Backend id, const char* name,
                                            MulFn mul326, SqrFn sqr326) {
  using detail::store_for_return;
  return BackendVTable{
      id,
      name,
      mul326,
      sqr326,
      [](const Gf163& a, const Gf163& b) {
        return store_for_return(Ops::mul(a, b));
      },
      [](const Gf163& a) { return store_for_return(Ops::sqr(a)); },
      [](const Gf163& a, const Gf163& b, const Gf163& c, const Gf163& d) {
        return store_for_return(Ops::mul_add_mul(a, b, c, d));
      },
      [](const Gf163& a, const Gf163& b, const Gf163& c) {
        return store_for_return(Ops::sqr_add_mul(a, b, c));
      }};
}

/// Run f(Ops{}) with the policy of the backend active right now. The
/// backend is read once, so everything f does runs on one inlined kernel.
template <class F>
decltype(auto) with_field_ops(F&& f) {
#if MEDSEC_HAVE_CLMUL_OPS
  if (active_backend() == Backend::kClmul) return f(ClmulOps{});
#endif
  return f(KaratsubaOps{});
}

}  // namespace medsec::gf2m
