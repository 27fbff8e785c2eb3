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

/// The two phases of an interleaved (Straus/Shamir) multi-scalar
/// multiplication, kept apart for a caller that sums several runs of the
/// same terms: the batch verifier bisects a failed batch over one table.
///
/// Table phase (the constructor): the width-4 wNAF digits of every term's
/// scalar, and the affine odd multiples (1, 3, 5, 7)·p of every term's
/// point and of `base`, normalized with two shared batch inversions.
/// Evaluation phase (evaluate): ONE doubling chain in López–Dahab
/// projective coordinates over a run of terms plus base_k·base, where
/// base_k is supplied per evaluation; each term contributes only its wNAF
/// additions, and the result costs one inversion.
///
/// For n full-width terms the table costs n doublings, 3n additions and 2
/// inversions; an evaluation over all of them ~163 doublings + n*163/5
/// additions + 1 inversion, against n*(163 + 81) operations for n
/// independent double-and-add multiplications. The verifier's 64-item
/// batch (128 terms plus the base, 64 terms with 64-bit coefficients)
/// needs about 2.9k mixed additions this way; Pippenger buckets with c = 5
/// would need about 5.3k, so Straus stays. Each phase runs on one field
/// backend, read once at entry, with every field operation inlined
/// (point_arith.h); scalars reduce mod the order through Barrett.
///
/// Variable-time (verifier/reader-side only — never feed it a secret
/// scalar). Zero scalars and infinity points contribute nothing. It
/// validates nothing: callers at trust boundaries must run
/// Curve::validate_subgroup_point on each point first. The table keeps a
/// pointer to `curve`, which must outlive it.
class MsmTable {
 public:
  MsmTable(const Curve& curve, std::span<const MsmTerm> terms,
           const Point& base = Point::at_infinity());

  /// sum of terms[i].k·terms[i].p over first <= i < last, plus
  /// base_k·base.
  Point evaluate(std::size_t first, std::size_t last,
                 const Scalar& base_k) const;

 private:
  template <class Ops>
  friend struct PointArith;

  static constexpr unsigned kWidth = 4;
  static constexpr std::size_t kOdd = std::size_t{1} << (kWidth - 2);

  const Curve* curve_;
  std::vector<std::size_t> lengths_;  ///< digits per term; 0 = no term
  /// digits_[j * n + i], n terms: wNAF digit j of term i's reduced scalar,
  /// so one doubling step reads the digits of a run of terms in a row.
  std::vector<std::int8_t> digits_;
  /// odd_[i * kOdd + d / 2] = d·p_i for odd d; the base's multiples follow
  /// the last term's (infinity entries when the base is infinity).
  std::vector<Point> odd_;
};

/// sum_i terms[i].k * terms[i].p: an MsmTable over `terms`, evaluated
/// once over all of them.
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
