// taint_fe.h — GF(2^163) field element over tainted limbs, for the
// secret-taint audit of the ladder core.
//
// TaintFe is the FE of ecc/ladder_core.h (cswap / zero / one / operator+)
// and, through ecc::ValueOps<TaintFe>, its Ops (mul / sqr / mul_add_mul /
// sqr_add_mul), with three Tainted<uint64_t> limbs, so the audit build
// instantiates the *same* ladder formulas the production Gf163 runs. The
// arithmetic here is a deliberately branch-free reference implementation:
//
//   * carry-less 64×64 multiply — a fixed 64-round shift/mask/XOR loop
//     (no early exit on zero words, no data-dependent iteration count);
//   * 3×3-limb schoolbook product — nine emulated clmuls, always;
//   * reduction — the reduce326 word-fold schedule from
//     gf2m/reduce_163.h, transcribed over tainted words (same constants,
//     same unconditional fold).
//
// Correctness is cross-checked against Gf163 in tests (TaintFe::mul
// declassified must equal Gf163::mul on the same operands), and the
// taint audit verifies the *structure*: a full ladder over TaintFe must
// complete with zero recorded violations. Ops are counted per field
// operation (not per limb primitive) to keep the interpreter cheap.
#pragma once

#include <cstdint>

#include "ctaudit/taint.h"
#include "gf2m/gf2_163.h"
#include "gf2m/reduce_163.h"

namespace medsec::ctaudit {

class TaintFe {
 public:
  using Limb = Tainted<std::uint64_t>;

  TaintFe() = default;

  static TaintFe zero() { return TaintFe{}; }
  static TaintFe one() {
    TaintFe r;
    r.limb_[0] = Limb(1);
    return r;
  }

  /// Lift a public field element (curve constants, base-point x).
  static TaintFe from(const gf2m::Gf163& v) {
    TaintFe r;
    for (std::size_t i = 0; i < 3; ++i) r.limb_[i] = Limb(v.limb(i));
    return r;
  }
  /// Lift a secret field element. Identical representation — the taint
  /// model is binary (everything inside the audit is treated as
  /// secret-derived once it mixes with any input); the separate entry
  /// point documents intent at call sites.
  static TaintFe secret_from(const gf2m::Gf163& v) { return from(v); }

  /// Exit the tainted domain (ladder outputs, cross-check points).
  gf2m::Gf163 declassify() const {
    return gf2m::Gf163{limb_[0].declassify(), limb_[1].declassify(),
                       limb_[2].declassify()};
  }

  friend TaintFe operator+(const TaintFe& a, const TaintFe& b) {
    TaintFe r;
    for (std::size_t i = 0; i < 3; ++i) r.limb_[i] = a.limb_[i] ^ b.limb_[i];
    count_op();
    return r;
  }

  static TaintFe mul(const TaintFe& a, const TaintFe& b) {
    Limb p[6];
    mul_unreduced(a, b, p);
    count_op();
    return reduce(p);
  }

  static TaintFe sqr(const TaintFe& a) {
    Limb p[6];
    sqr_unreduced(a, p);
    count_op();
    return reduce(p);
  }

  /// a·b + c·d with a single reduction (XOR of the unreduced products —
  /// the same lazy-reduction shape the production backends use).
  static TaintFe mul_add_mul(const TaintFe& a, const TaintFe& b,
                             const TaintFe& c, const TaintFe& d) {
    Limb p[6], q[6];
    mul_unreduced(a, b, p);
    mul_unreduced(c, d, q);
    for (std::size_t i = 0; i < 6; ++i) p[i] ^= q[i];
    count_op();
    return reduce(p);
  }

  /// a^2 + b·c with a single reduction.
  static TaintFe sqr_add_mul(const TaintFe& a, const TaintFe& b,
                             const TaintFe& c) {
    Limb p[6], q[6];
    sqr_unreduced(a, p);
    mul_unreduced(b, c, q);
    for (std::size_t i = 0; i < 6; ++i) p[i] ^= q[i];
    count_op();
    return reduce(p);
  }

  /// Constant-time conditional swap, masking idiom — the tainted choice
  /// never reaches a branch or an index, so a clean audit of the ladder
  /// proves the cswap discipline held.
  static void cswap(const Limb& choice, TaintFe& a, TaintFe& b) {
    const Limb m = Limb(0) - (choice & Limb(1));
    for (std::size_t i = 0; i < 3; ++i) {
      const Limb t = (a.limb_[i] ^ b.limb_[i]) & m;
      a.limb_[i] ^= t;
      b.limb_[i] ^= t;
    }
    count_op();
  }

 private:
  static void count_op() {
    if (TaintContext* ctx = TaintContext::current()) ctx->count_op();
  }

  /// 64×64 carry-less multiply: fixed 64 rounds, each round folds bit i
  /// of b into the product under a mask. The only branch is on the
  /// public loop counter (guarding the i == 0 shift-by-64 UB), never on
  /// data — each secret bit is consumed through the mask.
  static void clmul64(const Limb& a, const Limb& b, Limb& lo, Limb& hi) {
    lo = Limb(0);
    hi = Limb(0);
    for (unsigned i = 0; i < 64; ++i) {
      const Limb mask = Limb(0) - ((b >> i) & Limb(1));
      lo ^= (a << i) & mask;
      if (i != 0) hi ^= (a >> (64u - i)) & mask;
    }
  }

  /// 3×3-limb schoolbook carry-less product into p[0..5]. Nine clmuls,
  /// unconditionally.
  static void mul_unreduced(const TaintFe& a, const TaintFe& b, Limb p[6]) {
    for (std::size_t i = 0; i < 6; ++i) p[i] = Limb(0);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        Limb lo, hi;
        clmul64(a.limb_[i], b.limb_[j], lo, hi);
        p[i + j] ^= lo;
        p[i + j + 1] ^= hi;
      }
    }
  }

  /// Squaring: cross terms vanish over GF(2), so the unreduced square is
  /// three self-clmuls at word offsets 0 / 2 / 4.
  static void sqr_unreduced(const TaintFe& a, Limb p[6]) {
    for (std::size_t i = 0; i < 3; ++i) {
      Limb lo, hi;
      clmul64(a.limb_[i], a.limb_[i], lo, hi);
      p[2 * i] = lo;
      p[2 * i + 1] = hi;
    }
  }

  /// reduce326 from gf2m/reduce_163.h over tainted words: same fold
  /// constants, same unconditional schedule.
  static TaintFe reduce(const Limb p_in[6]) {
    Limb p[6] = {p_in[0], p_in[1], p_in[2], p_in[3], p_in[4], p_in[5]};
    for (std::size_t i = 5; i >= 3; --i) {
      const Limb t = p[i];
      Limb lo(0), hi(0);
      for (const unsigned e : gf2m::kPentanomialExps) {
        lo ^= t << (gf2m::kWordFoldShift + e);
        hi ^= t >> (64u - gf2m::kWordFoldShift - e);
      }
      p[i - 3] ^= lo;
      p[i - 2] ^= hi;
    }
    const Limb t = p[2] >> gf2m::kTopLimbBits;
    Limb tail(0);
    for (const unsigned e : gf2m::kPentanomialExps) tail ^= t << e;
    TaintFe r;
    r.limb_[0] = p[0] ^ tail;
    r.limb_[1] = p[1];
    r.limb_[2] = p[2] & Limb(gf2m::kTopLimbMask);
    return r;
  }

  Limb limb_[3];
};

}  // namespace medsec::ctaudit
