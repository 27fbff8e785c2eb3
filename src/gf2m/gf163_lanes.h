// gf163_lanes.h — the batch field layer: N independent F_2^163 elements
// computed per call.
//
// Gf163xN stores N field elements structure-of-arrays (limb-major), which
// is the layout every wide backend wants: the interleaved-clmul kernel
// streams consecutive lanes through independent PCLMULQDQ chains, the
// VPCLMULQDQ kernels load 4 or 8 consecutive limbs per register, and
// per-lane taps (the trace simulator's Hamming-weight probe, the ladder's
// conditional swaps) index a lane directly without deinterleaving.
//
// All arithmetic dispatches through the lane-backend registry in
// backend.h (MEDSEC_GF2M_LANES / set_lane_backend); results are
// bit-identical across backends and identical to Gf163 scalar arithmetic
// lane by lane — the batched ladder and the DPA hypothesis engine rely on
// that exactness.
#pragma once

#include <cstdint>
#include <vector>

#include "gf2m/backend.h"
#include "gf2m/gf2_163.h"

namespace medsec::gf2m {

class Gf163xN {
 public:
  Gf163xN() = default;
  explicit Gf163xN(std::size_t n) { resize(n); }

  /// Resize to n lanes, zero-filled (existing lane values discarded).
  void resize(std::size_t n) {
    n_ = n;
    l0_.assign(n, 0);
    l1_.assign(n, 0);
    l2_.assign(n, 0);
  }

  std::size_t lanes() const { return n_; }

  void set(std::size_t i, const Gf163& v) {
    l0_[i] = v.limb(0);
    l1_[i] = v.limb(1);
    l2_[i] = v.limb(2);
  }
  Gf163 get(std::size_t i) const { return Gf163{l0_[i], l1_[i], l2_[i]}; }
  void fill(const Gf163& v) {
    for (std::size_t i = 0; i < n_; ++i) set(i, v);
  }

  LaneView view() const { return LaneView{l0_.data(), l1_.data(), l2_.data()}; }
  LaneSpan span() { return LaneSpan{l0_.data(), l1_.data(), l2_.data()}; }

  /// out[i] = a[i] · b[i] (all arguments must have equal lane count; out
  /// may alias a or b).
  static void mul(const Gf163xN& a, const Gf163xN& b, Gf163xN& out);
  /// out[i] = a[i]^2.
  static void sqr(const Gf163xN& a, Gf163xN& out);
  /// out[i] = a[i]·b[i] + c[i]·d[i], one reduction per lane.
  static void mul_add_mul(const Gf163xN& a, const Gf163xN& b,
                          const Gf163xN& c, const Gf163xN& d, Gf163xN& out);
  /// out[i] = a[i]^2 + b[i]·c[i], one reduction per lane.
  static void sqr_add_mul(const Gf163xN& a, const Gf163xN& b,
                          const Gf163xN& c, Gf163xN& out);

  /// out[i] = a[i] + b[i] (XOR).
  static void add(const Gf163xN& a, const Gf163xN& b, Gf163xN& out);

  /// Constant-time per-lane conditional swap: lane i of a and b swapped
  /// when choice[i] & 1 (same masking discipline as Gf163::cswap).
  static void cswap(const std::uint8_t* choice, Gf163xN& a, Gf163xN& b);

  /// Hamming weight of lane i (the register-transfer leakage unit).
  int hamming_weight(std::size_t i) const;

  /// out[i] += hamming_weight(lane i) for every lane, walking each limb
  /// array contiguously — the bulk form the per-iteration leakage tap
  /// uses (array-major, so ~12x fewer cache lines touched than calling
  /// hamming_weight per lane).
  void hamming_weights_add(int* out) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> l0_, l1_, l2_;
};

}  // namespace medsec::gf2m
