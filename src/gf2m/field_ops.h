// field_ops.h — the field-arithmetic policies the formula layers are
// templated over, and the once-per-operation dispatch into them.
//
// The paper's co-processor runs the López–Dahab formulas back to back on
// one carry-less multiplier. This model does the same: every formula
// above the field — Itoh–Tsujii inversion and batch inversion here, the
// point formulas, comb, MSM and decoders (ecc/point_arith.h), the ladder
// wrappers (ecc/ladder_arith.h) and the shuffled ladder
// (sidechannel/shuffled_ladder.h) — is a template over one of two
// policies, each a static face of one scalar kernel pair:
//
//   KaratsubaOps — mul326_karatsuba / sqr326_portable (clmul.h);
//   ClmulOps     — hwclmul::mul326_clmul / sqr326_clmul (clmul_hw.h).
//
// Both fold through the one reduce326 (reduce_163.h), so the two are bit
// for bit interchangeable. A public entry point (a scalar multiplication,
// an MSM, a batch decode, an inversion) reads the active backend once
// through with_field_ops() and runs the matching instantiation, inside
// which every field operation is an inlined kernel call. set_backend()
// therefore takes effect at the next top-level call.
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

/// Field arithmetic over one unreduced kernel pair. The four single
/// operations are inline; the formulas built from them are defined out of
/// line below, so `extern template` can keep them out of a translation
/// unit.
template <MulFn Mul326, SqrFn Sqr326>
struct FieldOps {
  /// The unreduced kernels (the backend vtable exposes them).
  static constexpr MulFn kMul326 = Mul326;
  static constexpr SqrFn kSqr326 = Sqr326;

  static Gf163 mul(const Gf163& a, const Gf163& b) {
    std::uint64_t p[6];
    Mul326(a.limbs(), b.limbs(), p);
    return fold(p);
  }

  static Gf163 sqr(const Gf163& a) {
    std::uint64_t p[6];
    Sqr326(a.limbs(), p);
    return fold(p);
  }

  /// a·b + c·d with one reduction (the unreduced products are XORed).
  static Gf163 mul_add_mul(const Gf163& a, const Gf163& b, const Gf163& c,
                           const Gf163& d) {
    std::uint64_t p[6], q[6];
    Mul326(a.limbs(), b.limbs(), p);
    Mul326(c.limbs(), d.limbs(), q);
    for (std::size_t i = 0; i < 6; ++i) p[i] ^= q[i];
    return fold(p);
  }

  /// a^2 + b·c with one reduction.
  static Gf163 sqr_add_mul(const Gf163& a, const Gf163& b, const Gf163& c) {
    std::uint64_t p[6], q[6];
    Sqr326(a.limbs(), p);
    Mul326(b.limbs(), c.limbs(), q);
    for (std::size_t i = 0; i < 6; ++i) p[i] ^= q[i];
    return fold(p);
  }

  /// See Gf163::inv / batch_inv / sqr_n.
  static Gf163 inv(const Gf163& a);
  static void batch_inv(Gf163* elems, std::size_t n);
  static Gf163 sqr_n(Gf163 a, unsigned n);

 private:
  static Gf163 fold(const std::uint64_t p[6]) {
    std::uint64_t r[3];
    reduce326(p, r);
    return Gf163{r[0], r[1], r[2]};
  }
};

template <MulFn M, SqrFn S>
Gf163 FieldOps<M, S>::sqr_n(Gf163 a, unsigned n) {
  for (const unsigned stride : detail::kMultiSqrStrides)
    for (; n >= stride; n -= stride) a = detail::multi_sqr(a, stride);
  for (; n > 0; --n) a = sqr(a);
  return a;
}

template <MulFn M, SqrFn S>
Gf163 FieldOps<M, S>::inv(const Gf163& a) {
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

template <MulFn M, SqrFn S>
void FieldOps<M, S>::batch_inv(Gf163* elems, std::size_t n) {
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

using KaratsubaOps = FieldOps<&mul326_karatsuba, &sqr326_portable>;

#if MEDSEC_HAVE_CLMUL_OPS
using ClmulOps = FieldOps<&hwclmul::mul326_clmul, &hwclmul::sqr326_clmul>;
extern template struct FieldOps<&hwclmul::mul326_clmul,
                                &hwclmul::sqr326_clmul>;
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

/// A backend vtable over policy Ops: its unreduced kernels plus the
/// reduced single operations behind the Gf163 per-operation API.
template <class Ops>
constexpr BackendVTable make_backend_vtable(Backend id, const char* name) {
  using detail::store_for_return;
  return BackendVTable{
      id,
      name,
      Ops::kMul326,
      Ops::kSqr326,
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
