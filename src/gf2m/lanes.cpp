// lanes.cpp — wide-lane kernels for the batch field layer.
//
// Four implementations of the LaneVTable contract (see backend.h):
//
//   * scalar loop — per-lane calls into the active scalar backend. The
//     reference every other lane backend is cross-checked against, and
//     the auto pick on CPUs without a carry-less multiplier.
//
//   * interleaved clmul — the 3-limb Karatsuba schedule on hardware
//     carry-less multiplies, two independent lanes per loop iteration
//     (plus the fused two-product forms: up to four independent 128-bit
//     products in flight). The scalar ladder is PCLMULQDQ-*latency*
//     bound; feeding the unit independent products converts it to
//     *throughput* bound, which is where the wide campaign engine gets
//     its single-core speedup.
//
//   * vpclmul512 / vpclmul256 — the mega-lane backends: VPCLMULQDQ packs
//     four (ZMM) or two (YMM) carry-less multiplies per instruction, so
//     8 (resp. 4) SoA lanes run one shared 3-limb Karatsuba schedule with
//     products and the shift-reduce fold staying vector-resident; both
//     widths run one set of kernel templates (clmul_vec.h). The plain
//     mul/sqr kernels keep two groups in flight (16 ZMM lanes per
//     iteration); the fused forms already carry two independent products
//     per group. Tails (< one group) fall back to the x86-64 `clmul` field
//     kernel; reduction mod f is unique, so its clmul fold and the vector
//     shift fold agree bit for bit.
//
// Each backend also carries the lockstep ladder's bookkeeping passes,
// add and cswap: the same templates on the vpclmul backends, per-lane
// loops on the other two.
#include <bit>

#include "gf2m/backend.h"
#include "gf2m/clmul_hw.h"
#include "gf2m/clmul_vec.h"
#include "gf2m/gf163_lanes.h"
#include "gf2m/reduce_163.h"

namespace medsec::gf2m {

namespace {

// --- scalar-loop lane kernels -----------------------------------------------

void lane_mul_scalar(LaneView a, LaneView b, LaneSpan out, std::size_t n) {
  const BackendVTable* vt = detail::active_vtable();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t av[3] = {a.l0[i], a.l1[i], a.l2[i]};
    const std::uint64_t bv[3] = {b.l0[i], b.l1[i], b.l2[i]};
    std::uint64_t p[6], r[3];
    vt->mul(av, bv, p);
    reduce326(p, r);
    out.l0[i] = r[0];
    out.l1[i] = r[1];
    out.l2[i] = r[2];
  }
}

void lane_sqr_scalar(LaneView a, LaneSpan out, std::size_t n) {
  const BackendVTable* vt = detail::active_vtable();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t av[3] = {a.l0[i], a.l1[i], a.l2[i]};
    std::uint64_t p[6], r[3];
    vt->sqr(av, p);
    reduce326(p, r);
    out.l0[i] = r[0];
    out.l1[i] = r[1];
    out.l2[i] = r[2];
  }
}

void lane_mul_add_mul_scalar(LaneView a, LaneView b, LaneView c, LaneView d,
                             LaneSpan out, std::size_t n) {
  const BackendVTable* vt = detail::active_vtable();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t av[3] = {a.l0[i], a.l1[i], a.l2[i]};
    const std::uint64_t bv[3] = {b.l0[i], b.l1[i], b.l2[i]};
    const std::uint64_t cv[3] = {c.l0[i], c.l1[i], c.l2[i]};
    const std::uint64_t dv[3] = {d.l0[i], d.l1[i], d.l2[i]};
    std::uint64_t p[6], q[6], r[3];
    vt->mul(av, bv, p);
    vt->mul(cv, dv, q);
    for (std::size_t w = 0; w < 6; ++w) p[w] ^= q[w];
    reduce326(p, r);
    out.l0[i] = r[0];
    out.l1[i] = r[1];
    out.l2[i] = r[2];
  }
}

void lane_sqr_add_mul_scalar(LaneView a, LaneView b, LaneView c, LaneSpan out,
                             std::size_t n) {
  const BackendVTable* vt = detail::active_vtable();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t av[3] = {a.l0[i], a.l1[i], a.l2[i]};
    const std::uint64_t bv[3] = {b.l0[i], b.l1[i], b.l2[i]};
    const std::uint64_t cv[3] = {c.l0[i], c.l1[i], c.l2[i]};
    std::uint64_t p[6], q[6], r[3];
    vt->sqr(av, p);
    vt->mul(bv, cv, q);
    for (std::size_t w = 0; w < 6; ++w) p[w] ^= q[w];
    reduce326(p, r);
    out.l0[i] = r[0];
    out.l1[i] = r[1];
    out.l2[i] = r[2];
  }
}

// --- add / cswap: the per-lane loops ---------------------------------------
//
// The scalar and clmulwide backends run these as they are; the vector
// backends finish their tails on them. Every tail loop is `#pragma GCC
// unroll 1`: after a vector loop fewer lanes than one group are left, and
// GCC would otherwise peel the tail into one copy per possible lane.

inline void add_from(LaneView a, LaneView b, LaneSpan out, std::size_t i,
                     std::size_t n) {
#pragma GCC unroll 1
  for (; i < n; ++i) {
    out.l0[i] = a.l0[i] ^ b.l0[i];
    out.l1[i] = a.l1[i] ^ b.l1[i];
    out.l2[i] = a.l2[i] ^ b.l2[i];
  }
}

inline void cswap_from(const std::uint8_t* choice, LaneSpan a, LaneSpan b,
                       std::size_t i, std::size_t n) {
#pragma GCC unroll 1
  for (; i < n; ++i) {
    const std::uint64_t m = 0 - static_cast<std::uint64_t>(choice[i] & 1);
    std::uint64_t t = (a.l0[i] ^ b.l0[i]) & m;
    a.l0[i] ^= t;
    b.l0[i] ^= t;
    t = (a.l1[i] ^ b.l1[i]) & m;
    a.l1[i] ^= t;
    b.l1[i] ^= t;
    t = (a.l2[i] ^ b.l2[i]) & m;
    a.l2[i] ^= t;
    b.l2[i] ^= t;
  }
}

void lane_add_loop(LaneView a, LaneView b, LaneSpan out, std::size_t n) {
  add_from(a, b, out, 0, n);
}

void lane_cswap_loop(const std::uint8_t* choice, LaneSpan a, LaneSpan b,
                     std::size_t n) {
  cswap_from(choice, a, b, 0, n);
}

constexpr LaneVTable kLaneScalarVTable{
    LaneBackend::kLaneScalar, "scalar", 4,
    &lane_mul_scalar, &lane_sqr_scalar,
    &lane_mul_add_mul_scalar, &lane_sqr_add_mul_scalar,
    &lane_add_loop, &lane_cswap_loop};

// --- interleaved hardware-clmul lane kernels (x86-64) -----------------------
//
// The AArch64 PMULL unit is also pipelined, but the scalar-loop fallback
// over the PMULL scalar backend already keeps it reasonably fed; the
// explicit interleave is implemented for x86-64 where PCLMULQDQ latency
// (4-7 cycles) vs throughput (1/cycle) leaves the largest gap.

#if MEDSEC_ARCH_X86_64

__attribute__((target("pclmul,sse4.1"))) inline void load_reduce_store(
    const std::uint64_t p[6], LaneSpan out, std::size_t i) {
  std::uint64_t r[3];
  reduce326(p, r);
  out.l0[i] = r[0];
  out.l1[i] = r[1];
  out.l2[i] = r[2];
}

// Single-lane tails: lanes [i, n) on the x86-64 `clmul` field kernel
// (product and fold in XMM registers), where every backend's lane count
// that is not a multiple of its group width finishes. The target is a
// subset of each caller's, so they inline into the vector kernels.

using hwclmul::XmmKernel;

inline void store_lane(const Gf163& r, LaneSpan out, std::size_t i) {
  out.l0[i] = r.limb(0);
  out.l1[i] = r.limb(1);
  out.l2[i] = r.limb(2);
}

__attribute__((target("pclmul,sse4.1"))) inline void mul_tail(
    LaneView a, LaneView b, LaneSpan out, std::size_t i, std::size_t n) {
#pragma GCC unroll 1
  for (; i < n; ++i) {
    const std::uint64_t av[3] = {a.l0[i], a.l1[i], a.l2[i]};
    const std::uint64_t bv[3] = {b.l0[i], b.l1[i], b.l2[i]};
    store_lane(XmmKernel::fold(XmmKernel::mul(av, bv)), out, i);
  }
}

__attribute__((target("pclmul,sse4.1"))) inline void sqr_tail(
    LaneView a, LaneSpan out, std::size_t i, std::size_t n) {
#pragma GCC unroll 1
  for (; i < n; ++i) {
    const std::uint64_t av[3] = {a.l0[i], a.l1[i], a.l2[i]};
    store_lane(XmmKernel::fold(XmmKernel::sqr(av)), out, i);
  }
}

__attribute__((target("pclmul,sse4.1"))) inline void mul_add_mul_tail(
    LaneView a, LaneView b, LaneView c, LaneView d, LaneSpan out,
    std::size_t i, std::size_t n) {
#pragma GCC unroll 1
  for (; i < n; ++i) {
    const std::uint64_t av[3] = {a.l0[i], a.l1[i], a.l2[i]};
    const std::uint64_t bv[3] = {b.l0[i], b.l1[i], b.l2[i]};
    const std::uint64_t cv[3] = {c.l0[i], c.l1[i], c.l2[i]};
    const std::uint64_t dv[3] = {d.l0[i], d.l1[i], d.l2[i]};
    store_lane(
        XmmKernel::fold(XmmKernel::mul(av, bv) ^ XmmKernel::mul(cv, dv)),
        out, i);
  }
}

__attribute__((target("pclmul,sse4.1"))) inline void sqr_add_mul_tail(
    LaneView a, LaneView b, LaneView c, LaneSpan out, std::size_t i,
    std::size_t n) {
#pragma GCC unroll 1
  for (; i < n; ++i) {
    const std::uint64_t av[3] = {a.l0[i], a.l1[i], a.l2[i]};
    const std::uint64_t bv[3] = {b.l0[i], b.l1[i], b.l2[i]};
    const std::uint64_t cv[3] = {c.l0[i], c.l1[i], c.l2[i]};
    store_lane(XmmKernel::fold(XmmKernel::sqr(av) ^ XmmKernel::mul(bv, cv)),
               out, i);
  }
}

__attribute__((target("pclmul,sse4.1"))) void lane_mul_clmulwide(
    LaneView a, LaneView b, LaneSpan out, std::size_t n) {
  std::size_t i = 0;
  // Two lanes per iteration: the twelve PCLMULQDQs of the pair are
  // mutually independent, so the multiplier pipeline stays full.
  for (; i + 2 <= n; i += 2) {
    const std::uint64_t aA[3] = {a.l0[i], a.l1[i], a.l2[i]};
    const std::uint64_t bA[3] = {b.l0[i], b.l1[i], b.l2[i]};
    const std::uint64_t aB[3] = {a.l0[i + 1], a.l1[i + 1], a.l2[i + 1]};
    const std::uint64_t bB[3] = {b.l0[i + 1], b.l1[i + 1], b.l2[i + 1]};
    std::uint64_t pA[6], pB[6];
    hwclmul::mul326_clmul(aA, bA, pA);
    hwclmul::mul326_clmul(aB, bB, pB);
    load_reduce_store(pA, out, i);
    load_reduce_store(pB, out, i + 1);
  }
  mul_tail(a, b, out, i, n);
}

__attribute__((target("pclmul,sse4.1"))) void lane_sqr_clmulwide(
    LaneView a, LaneSpan out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const std::uint64_t aA[3] = {a.l0[i], a.l1[i], a.l2[i]};
    const std::uint64_t aB[3] = {a.l0[i + 1], a.l1[i + 1], a.l2[i + 1]};
    std::uint64_t pA[6], pB[6];
    hwclmul::sqr326_clmul(aA, pA);
    hwclmul::sqr326_clmul(aB, pB);
    load_reduce_store(pA, out, i);
    load_reduce_store(pB, out, i + 1);
  }
  sqr_tail(a, out, i, n);
}

__attribute__((target("pclmul,sse4.1"))) void lane_mul_add_mul_clmulwide(
    LaneView a, LaneView b, LaneView c, LaneView d, LaneSpan out,
    std::size_t n) {
  // Two lanes x two products = four independent 128-bit product chains
  // in flight per iteration.
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const std::uint64_t aA[3] = {a.l0[i], a.l1[i], a.l2[i]};
    const std::uint64_t bA[3] = {b.l0[i], b.l1[i], b.l2[i]};
    const std::uint64_t cA[3] = {c.l0[i], c.l1[i], c.l2[i]};
    const std::uint64_t dA[3] = {d.l0[i], d.l1[i], d.l2[i]};
    const std::uint64_t aB[3] = {a.l0[i + 1], a.l1[i + 1], a.l2[i + 1]};
    const std::uint64_t bB[3] = {b.l0[i + 1], b.l1[i + 1], b.l2[i + 1]};
    const std::uint64_t cB[3] = {c.l0[i + 1], c.l1[i + 1], c.l2[i + 1]};
    const std::uint64_t dB[3] = {d.l0[i + 1], d.l1[i + 1], d.l2[i + 1]};
    std::uint64_t pA[6], qA[6], pB[6], qB[6];
    hwclmul::mul326_clmul(aA, bA, pA);
    hwclmul::mul326_clmul(aB, bB, pB);
    hwclmul::mul326_clmul(cA, dA, qA);
    hwclmul::mul326_clmul(cB, dB, qB);
    for (std::size_t w = 0; w < 6; ++w) pA[w] ^= qA[w];
    for (std::size_t w = 0; w < 6; ++w) pB[w] ^= qB[w];
    load_reduce_store(pA, out, i);
    load_reduce_store(pB, out, i + 1);
  }
  mul_add_mul_tail(a, b, c, d, out, i, n);
}

__attribute__((target("pclmul,sse4.1"))) void lane_sqr_add_mul_clmulwide(
    LaneView a, LaneView b, LaneView c, LaneSpan out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const std::uint64_t aA[3] = {a.l0[i], a.l1[i], a.l2[i]};
    const std::uint64_t bA[3] = {b.l0[i], b.l1[i], b.l2[i]};
    const std::uint64_t cA[3] = {c.l0[i], c.l1[i], c.l2[i]};
    const std::uint64_t aB[3] = {a.l0[i + 1], a.l1[i + 1], a.l2[i + 1]};
    const std::uint64_t bB[3] = {b.l0[i + 1], b.l1[i + 1], b.l2[i + 1]};
    const std::uint64_t cB[3] = {c.l0[i + 1], c.l1[i + 1], c.l2[i + 1]};
    std::uint64_t pA[6], qA[6], pB[6], qB[6];
    hwclmul::sqr326_clmul(aA, pA);
    hwclmul::sqr326_clmul(aB, pB);
    hwclmul::mul326_clmul(bA, cA, qA);
    hwclmul::mul326_clmul(bB, cB, qB);
    for (std::size_t w = 0; w < 6; ++w) pA[w] ^= qA[w];
    for (std::size_t w = 0; w < 6; ++w) pB[w] ^= qB[w];
    load_reduce_store(pA, out, i);
    load_reduce_store(pB, out, i + 1);
  }
  sqr_add_mul_tail(a, b, c, out, i, n);
}

constexpr LaneVTable kLaneClmulWideVTable{
    LaneBackend::kLaneClmulWide, "clmulwide", 8,
    &lane_mul_clmulwide, &lane_sqr_clmulwide,
    &lane_mul_add_mul_clmulwide, &lane_sqr_add_mul_clmulwide,
    &lane_add_loop, &lane_cswap_loop};

// --- VPCLMULQDQ mega-lane kernels (x86-64) ----------------------------------
//
// One set of loops for both widths of clmul_vec.h (W::kLanes: 8 on Zmm,
// 4 on Ymm). mul/sqr run two independent groups per iteration (16 ZMM
// lanes, 24 VPCLMULQDQ in flight for mul); the fused forms run one group
// but already carry two independent products. Lane counts that are not a
// multiple of the group width finish on the single-lane tails above. All
// loads of a group happen before its stores, so `out` may alias an
// input. No target, always inlined (-Wpsabi: see clmul_vec.h).

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

template <class W>
[[gnu::always_inline]] inline void vec_mul(LaneView a, LaneView b,
                                           LaneSpan out, std::size_t n) {
  constexpr std::size_t k = W::kLanes;
  std::size_t i = 0;
  for (; i + 2 * k <= n; i += 2 * k) {
    typename W::V aA[3], bA[3], aB[3], bB[3], pA[6], pB[6];
    vclmul::load3<W>(a, i, aA);
    vclmul::load3<W>(b, i, bA);
    vclmul::load3<W>(a, i + k, aB);
    vclmul::load3<W>(b, i + k, bB);
    vclmul::mul326<W>(aA, bA, pA);
    vclmul::mul326<W>(aB, bB, pB);
    vclmul::reduce_store<W>(pA, out, i);
    vclmul::reduce_store<W>(pB, out, i + k);
  }
  for (; i + k <= n; i += k) {
    typename W::V av[3], bv[3], p[6];
    vclmul::load3<W>(a, i, av);
    vclmul::load3<W>(b, i, bv);
    vclmul::mul326<W>(av, bv, p);
    vclmul::reduce_store<W>(p, out, i);
  }
  mul_tail(a, b, out, i, n);
}

template <class W>
[[gnu::always_inline]] inline void vec_sqr(LaneView a, LaneSpan out,
                                           std::size_t n) {
  constexpr std::size_t k = W::kLanes;
  std::size_t i = 0;
  for (; i + 2 * k <= n; i += 2 * k) {
    typename W::V aA[3], aB[3], pA[6], pB[6];
    vclmul::load3<W>(a, i, aA);
    vclmul::load3<W>(a, i + k, aB);
    vclmul::sqr326<W>(aA, pA);
    vclmul::sqr326<W>(aB, pB);
    vclmul::reduce_store<W>(pA, out, i);
    vclmul::reduce_store<W>(pB, out, i + k);
  }
  for (; i + k <= n; i += k) {
    typename W::V av[3], p[6];
    vclmul::load3<W>(a, i, av);
    vclmul::sqr326<W>(av, p);
    vclmul::reduce_store<W>(p, out, i);
  }
  sqr_tail(a, out, i, n);
}

template <class W>
[[gnu::always_inline]] inline void vec_mul_add_mul(LaneView a, LaneView b,
                                                   LaneView c, LaneView d,
                                                   LaneSpan out,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + W::kLanes <= n; i += W::kLanes) {
    typename W::V av[3], bv[3], cv[3], dv[3], p[6], q[6];
    vclmul::load3<W>(a, i, av);
    vclmul::load3<W>(b, i, bv);
    vclmul::load3<W>(c, i, cv);
    vclmul::load3<W>(d, i, dv);
    vclmul::mul326<W>(av, bv, p);
    vclmul::mul326<W>(cv, dv, q);
    // Accumulate before the single fold (the lane-domain lazy reduction).
    for (std::size_t w = 0; w < 6; ++w) p[w] = W::xor_(p[w], q[w]);
    vclmul::reduce_store<W>(p, out, i);
  }
  mul_add_mul_tail(a, b, c, d, out, i, n);
}

template <class W>
[[gnu::always_inline]] inline void vec_sqr_add_mul(LaneView a, LaneView b,
                                                   LaneView c, LaneSpan out,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + W::kLanes <= n; i += W::kLanes) {
    typename W::V av[3], bv[3], cv[3], p[6], q[6];
    vclmul::load3<W>(a, i, av);
    vclmul::load3<W>(b, i, bv);
    vclmul::load3<W>(c, i, cv);
    vclmul::sqr326<W>(av, p);
    vclmul::mul326<W>(bv, cv, q);
    for (std::size_t w = 0; w < 6; ++w) p[w] = W::xor_(p[w], q[w]);
    vclmul::reduce_store<W>(p, out, i);
  }
  sqr_add_mul_tail(a, b, c, out, i, n);
}

template <class W>
[[gnu::always_inline]] inline void vec_add(LaneView a, LaneView b,
                                           LaneSpan out, std::size_t n) {
  std::size_t i = 0;
  for (; i + W::kLanes <= n; i += W::kLanes) {
    typename W::V av[3], bv[3];
    vclmul::load3<W>(a, i, av);
    vclmul::load3<W>(b, i, bv);
    std::uint64_t* const ol[3] = {out.l0, out.l1, out.l2};
    for (std::size_t l = 0; l < 3; ++l)
      W::store(ol[l] + i, W::xor_(av[l], bv[l]));
  }
  add_from(a, b, out, i, n);
}

/// W::kLanes lanes per step: bit 0 of each choice byte becomes the
/// width's lane mask, and every limb of both operands is loaded, selected
/// both ways and stored whatever the mask holds.
template <class W>
[[gnu::always_inline]] inline void vec_cswap(const std::uint8_t* choice,
                                             LaneSpan a, LaneSpan b,
                                             std::size_t n) {
  std::uint64_t* const al[3] = {a.l0, a.l1, a.l2};
  std::uint64_t* const bl[3] = {b.l0, b.l1, b.l2};
  std::size_t i = 0;
  for (; i + W::kLanes <= n; i += W::kLanes) {
    const auto m = W::cswap_mask(choice + i);
    for (std::size_t l = 0; l < 3; ++l) {
      const auto x = W::load(al[l] + i);
      const auto y = W::load(bl[l] + i);
      W::store(al[l] + i, W::select(m, x, y));
      W::store(bl[l] + i, W::select(m, y, x));
    }
  }
  cswap_from(choice, a, b, i, n);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// The entries: one kernel at one width under that width's target;
// [[gnu::flatten]] inlines the width members and the tails, so an entry
// holds its whole kernel with no call.
[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL512 void lane_mul_vpclmul512(
    LaneView a, LaneView b, LaneSpan out, std::size_t n) {
  vec_mul<vclmul::Zmm>(a, b, out, n);
}
[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL512 void lane_sqr_vpclmul512(
    LaneView a, LaneSpan out, std::size_t n) {
  vec_sqr<vclmul::Zmm>(a, out, n);
}
[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL512 void lane_mul_add_mul_vpclmul512(
    LaneView a, LaneView b, LaneView c, LaneView d, LaneSpan out,
    std::size_t n) {
  vec_mul_add_mul<vclmul::Zmm>(a, b, c, d, out, n);
}
[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL512 void lane_sqr_add_mul_vpclmul512(
    LaneView a, LaneView b, LaneView c, LaneSpan out, std::size_t n) {
  vec_sqr_add_mul<vclmul::Zmm>(a, b, c, out, n);
}
[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL512 void lane_add_vpclmul512(
    LaneView a, LaneView b, LaneSpan out, std::size_t n) {
  vec_add<vclmul::Zmm>(a, b, out, n);
}
[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL512 void lane_cswap_vpclmul512(
    const std::uint8_t* choice, LaneSpan a, LaneSpan b, std::size_t n) {
  vec_cswap<vclmul::Zmm>(choice, a, b, n);
}

constexpr LaneVTable kLaneVpclmul512VTable{
    LaneBackend::kLaneVpclmul512, "vpclmul512", 16,
    &lane_mul_vpclmul512, &lane_sqr_vpclmul512,
    &lane_mul_add_mul_vpclmul512, &lane_sqr_add_mul_vpclmul512,
    &lane_add_vpclmul512, &lane_cswap_vpclmul512};

// The same six at YMM width.
[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL256 void lane_mul_vpclmul256(
    LaneView a, LaneView b, LaneSpan out, std::size_t n) {
  vec_mul<vclmul::Ymm>(a, b, out, n);
}
[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL256 void lane_sqr_vpclmul256(
    LaneView a, LaneSpan out, std::size_t n) {
  vec_sqr<vclmul::Ymm>(a, out, n);
}
[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL256 void lane_mul_add_mul_vpclmul256(
    LaneView a, LaneView b, LaneView c, LaneView d, LaneSpan out,
    std::size_t n) {
  vec_mul_add_mul<vclmul::Ymm>(a, b, c, d, out, n);
}
[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL256 void lane_sqr_add_mul_vpclmul256(
    LaneView a, LaneView b, LaneView c, LaneSpan out, std::size_t n) {
  vec_sqr_add_mul<vclmul::Ymm>(a, b, c, out, n);
}
[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL256 void lane_add_vpclmul256(
    LaneView a, LaneView b, LaneSpan out, std::size_t n) {
  vec_add<vclmul::Ymm>(a, b, out, n);
}
[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL256 void lane_cswap_vpclmul256(
    const std::uint8_t* choice, LaneSpan a, LaneSpan b, std::size_t n) {
  vec_cswap<vclmul::Ymm>(choice, a, b, n);
}

constexpr LaneVTable kLaneVpclmul256VTable{
    LaneBackend::kLaneVpclmul256, "vpclmul256", 8,
    &lane_mul_vpclmul256, &lane_sqr_vpclmul256,
    &lane_mul_add_mul_vpclmul256, &lane_sqr_add_mul_vpclmul256,
    &lane_add_vpclmul256, &lane_cswap_vpclmul256};

#endif  // MEDSEC_ARCH_X86_64

}  // namespace

const LaneVTable* lane_vtable(LaneBackend b) {
  switch (b) {
    case LaneBackend::kLaneScalar:
      return &kLaneScalarVTable;
    case LaneBackend::kLaneClmulWide:
#if MEDSEC_ARCH_X86_64
      if (hwclmul::clmul_supported()) return &kLaneClmulWideVTable;
#endif
      return nullptr;
    case LaneBackend::kLaneVpclmul512:
#if MEDSEC_ARCH_X86_64
      if (cpu::has_vpclmul512()) return &kLaneVpclmul512VTable;
#endif
      return nullptr;
    case LaneBackend::kLaneVpclmul256:
#if MEDSEC_ARCH_X86_64
      if (cpu::has_vpclmul256()) return &kLaneVpclmul256VTable;
#endif
      return nullptr;
  }
  return nullptr;
}

// --- Gf163xN dispatch -------------------------------------------------------

void Gf163xN::mul(const Gf163xN& a, const Gf163xN& b, Gf163xN& out) {
  active_lane_vtable()->mul(a.view(), b.view(), out.span(), out.lanes());
}

void Gf163xN::sqr(const Gf163xN& a, Gf163xN& out) {
  active_lane_vtable()->sqr(a.view(), out.span(), out.lanes());
}

void Gf163xN::mul_add_mul(const Gf163xN& a, const Gf163xN& b, const Gf163xN& c,
                          const Gf163xN& d, Gf163xN& out) {
  active_lane_vtable()->mul_add_mul(a.view(), b.view(), c.view(), d.view(),
                                    out.span(), out.lanes());
}

void Gf163xN::sqr_add_mul(const Gf163xN& a, const Gf163xN& b, const Gf163xN& c,
                          Gf163xN& out) {
  active_lane_vtable()->sqr_add_mul(a.view(), b.view(), c.view(), out.span(),
                                    out.lanes());
}

void Gf163xN::add(const Gf163xN& a, const Gf163xN& b, Gf163xN& out) {
  active_lane_vtable()->add(a.view(), b.view(), out.span(), out.lanes());
}

void Gf163xN::cswap(const std::uint8_t* choice, Gf163xN& a, Gf163xN& b) {
  active_lane_vtable()->cswap(choice, a.span(), b.span(), a.lanes());
}

int Gf163xN::hamming_weight(std::size_t i) const {
  return std::popcount(l0_[i]) + std::popcount(l1_[i]) + std::popcount(l2_[i]);
}

void Gf163xN::hamming_weights_add(int* out) const {
  for (std::size_t i = 0; i < n_; ++i) out[i] += std::popcount(l0_[i]);
  for (std::size_t i = 0; i < n_; ++i) out[i] += std::popcount(l1_[i]);
  for (std::size_t i = 0; i < n_; ++i) out[i] += std::popcount(l2_[i]);
}

}  // namespace medsec::gf2m
