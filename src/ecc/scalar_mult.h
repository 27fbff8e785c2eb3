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
/// point and of each of up to kMaxBases `bases`, normalized with two
/// shared batch inversions. A base equal to the curve's generator reads
/// its multiples from the curve tables (generator_tau_precomp) instead.
/// Evaluation phase (sum): ONE doubling chain in López–Dahab projective
/// coordinates over a run of terms plus base_ks[b]·bases[b] for every
/// base, where the base scalars are supplied per evaluation and recoded
/// into fixed-size arrays; each term and base contributes only its wNAF
/// additions, and the result costs one inversion.
///
/// For n full-width terms the table costs n doublings, 3n additions and 2
/// inversions; an evaluation over all of them ~163 doublings + n*163/5
/// additions + 1 inversion, against n*(163 + 81) operations for n
/// independent double-and-add multiplications. The table stays on wNAF
/// digits on K-163 too: a tau-adic recoding costs ~0.8 µs per scalar
/// against ~0.3 µs for wnaf_digits, which over a 64-item batch's scalars
/// is more than one Frobenius chain saves over one doubling chain (only
/// double_scalar_mult runs tau-adic). The verifier's 64-item batch under
/// one key (64 terms with 64-bit coefficients, the generator and the
/// folded key as bases) needs about 0.9k mixed additions this way, and
/// about 2.9k when every item brings its own key (64 more full-width
/// terms); Pippenger buckets with c = 5 would need about 5.3k for the
/// latter, so Straus stays. Each phase runs on one field backend, read
/// once at entry, with every field operation inlined (point_arith.h);
/// scalars reduce mod the order through Barrett.
///
/// Variable-time (verifier/reader-side only — never feed it a secret
/// scalar). Zero scalars and infinity points contribute nothing. It
/// validates nothing: callers at trust boundaries must run
/// Curve::validate_subgroup_point on each point first. The table keeps a
/// pointer to `curve`, which must outlive it.
class MsmTable {
 public:
  /// Most points whose scalar sum() takes per evaluation.
  static constexpr std::size_t kMaxBases = 8;

  /// Throws std::invalid_argument for more than kMaxBases bases.
  MsmTable(const Curve& curve, std::span<const MsmTerm> terms,
           std::span<const Point> bases = {});

  /// sum of terms[i].k·terms[i].p over first <= i < last, plus
  /// base_ks[b]·bases[b] for every base (base_ks holds one scalar per
  /// base).
  Point sum(std::size_t first, std::size_t last,
            std::span<const Scalar> base_ks = {}) const;

 private:
  template <class Ops>
  friend struct PointArith;

  static constexpr unsigned kWidth = 4;
  static constexpr std::size_t kOdd = std::size_t{1} << (kWidth - 2);
  /// wNAF digits of a reduced scalar: at most bit_length(order) + 1.
  static constexpr std::size_t kMaxDigits = Scalar::kBits + 1;

  const Curve* curve_;
  std::size_t bases_ = 0;
  std::vector<std::size_t> lengths_;  ///< digits per term; 0 = no term
  /// digits_[j * n + i], n terms: wNAF digit j of term i's reduced scalar,
  /// so one doubling step reads the digits of a run of terms in a row.
  std::vector<std::int8_t> digits_;
  /// odd_[i * kOdd + d / 2] = d·p_i for odd d; each base's multiples
  /// follow the last term's, in order (infinity entries for an infinite
  /// base).
  std::vector<Point> odd_;
};

/// sum_i terms[i].k * terms[i].p: an MsmTable over `terms`, evaluated
/// once over all of them.
Point multi_scalar_mult(const Curve& curve, std::span<const MsmTerm> terms);

/// k1·p1 + k2·p2 with one shared chain (Shamir's trick) — the
/// verifier-equation workhorse (Schnorr s·P − e·X, Peeters–Hermans
/// (s−d)·P − e·R, the privacy game's tracing test).
///
/// On a Koblitz curve (K-163), when both points are infinity or pass
/// Curve::validate_subgroup_point, it runs tau-adic (koblitz.h): each
/// scalar is reduced mod delta = (tau^163 − 1)/(tau − 1) to r0 + r1·tau
/// with |r_i| < 2^82 and recoded as a width-4 TNAF of ~163 digits, and one
/// chain of Frobenius maps (three squarings each) replaces the ~163
/// doublings. Elsewhere — B-163, or a point outside the prime-order
/// subgroup, where k mod delta would not act as k — it is a two-term
/// MsmTable over wNAF digits. Both paths return the same point.
///
/// Variable-time in the scalars' digits, like MsmTable: public scalars
/// only (see the README's secret-scalar notes).
Point double_scalar_mult(const Curve& curve, const Scalar& k1, const Point& p1,
                         const Scalar& k2, const Point& p2);

/// Width-w non-adjacent form of k: digits are zero or odd in
/// (-2^(w-1), 2^(w-1)), no two consecutive digits nonzero. Returned
/// little-endian (digit 0 = least significant). Exposed for tests and the
/// SPA discussion: the *positions* of nonzero digits are key-dependent,
/// which is exactly why the ladder wins on the device.
std::vector<int> wnaf_digits(const Scalar& k, unsigned width);

/// The same digits written to `out`, which has room for
/// k.bit_length() + 1 of them; returns how many (0 for k = 0). The MSM's
/// allocation-free form.
std::size_t wnaf_digits(const Scalar& k, unsigned width, std::int8_t* out);

}  // namespace medsec::ecc
