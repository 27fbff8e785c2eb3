// scalar_mult.h — scalar multiplication with selectable algorithm and
// instrumentation.
//
// The paper's design story needs a *leaky baseline* next to the protected
// ladder: the classic double-and-add executes a point addition only for
// key bits that are 1, so both its running time (timing attack, §7) and its
// operation sequence (SPA) are key-dependent. kMontgomeryLadder fixes the
// operation schedule; kLadderRpc adds the DPA countermeasure.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ecc/curve.h"
#include "ecc/ladder.h"

namespace medsec::ecc {

enum class MultAlgorithm {
  kDoubleAndAdd,      ///< unprotected baseline (timing + SPA leaky)
  kWnaf,              ///< width-4 NAF: faster than D&A, still SPA-leaky
  kTauNaf,            ///< Frobenius-based (Koblitz only): no doublings
  kMontgomeryLadder,  ///< constant operation schedule
  kLadderRpc,         ///< ladder + randomized projective coordinates
};

/// Per-execution instrumentation filled in by scalar_mult.
struct MultStats {
  std::size_t point_doubles = 0;
  std::size_t point_adds = 0;
  std::size_t ladder_iterations = 0;
  /// Abstract "operation slots": the architecture-level proxy for runtime.
  /// For double-and-add each double/add is one slot; for the ladder each
  /// iteration is one fixed-size slot.
  std::size_t op_slots = 0;
  /// Sequence of operations as executed (1 = add performed after double),
  /// the SPA-visible schedule for double-and-add.
  std::vector<std::uint8_t> op_pattern;
};

struct MultOptions {
  MultAlgorithm algorithm = MultAlgorithm::kMontgomeryLadder;
  rng::RandomSource* rng = nullptr;  ///< required for kLadderRpc
  LadderObserver observer;           ///< ladder side-channel hook
  MultStats* stats = nullptr;        ///< optional instrumentation sink
};

/// Compute k·P with the selected algorithm. Validates nothing: callers at
/// trust boundaries must run Curve::validate_subgroup_point first.
Point scalar_mult(const Curve& curve, const Scalar& k, const Point& p,
                  const MultOptions& options = {});

/// One term of a multi-scalar multiplication.
struct MsmTerm {
  Scalar k;
  Point p;
};

/// Interleaved (Straus/Shamir) multi-scalar multiplication:
/// sum_i terms[i].k * terms[i].p. All terms share ONE doubling chain in
/// López–Dahab projective coordinates; each term contributes only its wNAF
/// additions, and every per-term precomputed odd multiple across the whole
/// call is normalized to affine with a shared batch inversion. For n
/// full-width terms this costs ~163 doublings + n*(163/5 + 4) additions +
/// 2 field inversions total, against n*(163 + 81) operations for n
/// independent double-and-add multiplications. The verifier's 64-item
/// batch (n = 129 terms, 64 of them with 64-bit coefficients) needs about
/// 2.9k mixed additions this way; Pippenger buckets with c = 5 would need
/// about 5.3k, so Straus stays. The whole call runs on one field backend,
/// read once at entry, with every field operation inlined (point_arith.h);
/// scalars reduce mod the order through Barrett.
///
/// Variable-time (verifier/reader-side only — never feed it a secret
/// scalar). Zero scalars and infinity points contribute nothing. Like
/// scalar_mult, it validates nothing: callers at trust boundaries must run
/// Curve::validate_subgroup_point on each point first.
Point multi_scalar_mult(const Curve& curve, std::span<const MsmTerm> terms);

/// Double-scalar convenience (Shamir's trick): k1·p1 + k2·p2 with one
/// shared doubling chain — the verifier-equation workhorse (Schnorr
/// s·P − e·X, Peeters–Hermans (s−d)·P − e·R).
Point double_scalar_mult(const Curve& curve, const Scalar& k1, const Point& p1,
                         const Scalar& k2, const Point& p2);

/// Width-w non-adjacent form of k: digits are zero or odd in
/// (-2^(w-1), 2^(w-1)), no two consecutive digits nonzero. Returned
/// little-endian (digit 0 = least significant). Exposed for tests and the
/// SPA discussion: the *positions* of nonzero digits are key-dependent,
/// which is exactly why the ladder wins on the device.
std::vector<int> wnaf_digits(const Scalar& k, unsigned width);

}  // namespace medsec::ecc
