// ladder.h — Montgomery powering ladder for binary curves (López–Dahab
// x-only formulas), the paper's Algorithm 1.
//
// The paper (§4) chooses MPL because it (a) runs in a fixed number of
// iterations regardless of the key, defeating timing analysis and SPA,
// (b) needs only the x coordinate — six 163-bit registers for the whole
// point multiplication — and (c) composes with randomized projective
// coordinates ("R ← (xr, r)") to defeat DPA.
//
// This file is the *algorithmic* model; the cycle-accurate version the
// side-channel experiments drive lives in hw/coprocessor.h and executes the
// same formulas from microcode, cross-checked against this one.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "ecc/curve.h"
#include "ecc/ladder_core.h"
#include "rng/random_source.h"

namespace medsec::ecc {

/// Widened scalar for the blinded ladder: k' = k + r·n does not fit the
/// 192-bit Scalar once the 32/64-bit blind r is folded in.
using WideScalar = bigint::U256;

/// Snapshot of the ladder state after one iteration, delivered to an
/// observer. This is what the (modeled) adversary's probe sees of the
/// internal data flow; the trace simulator leaks Hamming distances of
/// these register updates.
struct LadderObservation {
  std::size_t bit_index;  ///< which key bit was just processed
  int key_bit;            ///< its value
  Fe x1, z1;              ///< "low" accumulator (k_high · P)
  Fe x2, z2;              ///< "high" accumulator ((k_high + 1) · P)
};

using LadderObserver = std::function<void(const LadderObservation&)>;

struct LadderOptions {
  /// Randomized projective coordinates (the paper's DPA countermeasure).
  bool randomize_z = false;
  /// Entropy for the randomization; required when randomize_z is set.
  rng::RandomSource* rng = nullptr;
  /// Per-iteration observer (side-channel instrumentation hook).
  LadderObserver observer;
  /// White-box evaluation: if set, the Z-randomizers are taken from this
  /// fixed list instead of the RNG ("the countermeasure is enabled, but the
  /// randomness is known" scenario of §7). Two nonzero field elements.
  std::optional<std::pair<Fe, Fe>> known_randomizers;
};

/// Fresh uniformly random nonzero field element — the Z-randomizer /
/// blinding-mask sampling discipline (three raw limbs, reject zero),
/// shared by every countermeasure layer so the fixed-draw-order
/// determinism contract has exactly one implementation.
Fe random_nonzero_fe(rng::RandomSource& rng);

/// x-only differential addition: returns (X3, Z3) with
/// Z3 = (X1 Z2 + X2 Z1)^2, X3 = x_diff * Z3 + (X1 Z2)(X2 Z1).
void ladder_add(const Fe& xd, const Fe& x1, const Fe& z1, const Fe& x2,
                const Fe& z2, Fe& x3, Fe& z3);

/// x-only doubling: X3 = X^4 + b Z^4, Z3 = X^2 Z^2.
void ladder_double(const Fe& b, const Fe& x, const Fe& z, Fe& x3, Fe& z3);

/// The ladder's working state: (x1 : z1) = k_high·P, (x2 : z2) = (k_high+1)·P.
/// The production instantiation of the templated core in ladder_core.h —
/// the constant-time audit harness instantiates the same core with its
/// taint-tracking field element.
using LadderState = LadderStateT<Fe>;

/// Unrandomized initial state for base-point x (projective 1-coordinates).
LadderState ladder_initial_state(const Fe& b, const Fe& x);

/// §7 projective randomization of a ladder state: (x1, z1) *= l1,
/// (x2, z2) *= l2. The one implementation of this arithmetic — victim
/// paths and the white-box attacker's state reconstruction must match it
/// exactly, so nobody re-inlines the four multiplications.
void randomize_ladder_state(LadderState& s, const Fe& l1, const Fe& l2);

/// Neutral start state (lo, hi) = (O, P) = ((1 : 0), (x : 1)): the ladder
/// invariant hi − lo = P holds with prefix value 0, so a ladder started
/// here correctly processes scalars with *leading zero bits*. This is what
/// lets the blinded ladder run a fixed, key-independent iteration count
/// even though bitlen(k + r·n) varies with r.
LadderState ladder_zero_state(const Fe& x);

/// One ladder iteration for key bit `bit` (cswap / add+double / cswap).
/// This exact function is shared by the victim (montgomery_ladder) and by
/// the modeled DPA adversary's hypothesis engine, so predictions and
/// reality can never drift apart by implementation detail.
void ladder_iteration(const Fe& b, const Fe& x_base, LadderState& s,
                      std::uint64_t bit);

/// Montgomery-ladder scalar multiplication with y-recovery.
/// Handles k >= order by reduction; returns infinity for k == 0 (mod n).
/// Precondition: p is an affine point on the curve with x != 0 (points of
/// order 2 are rejected by validate_subgroup_point upstream).
Point montgomery_ladder(const Curve& curve, const Scalar& k, const Point& p,
                        const LadderOptions& options = {});

/// x(k·q) on the constant-time ladder: montgomery_ladder_raw's fixed
/// schedule (constant-length scalar, masked swaps) plus one inversion, with
/// no y-recovery. nullopt when k·q = O. The entry for a multiplication by a
/// secret key whose result only feeds x(·) — a Diffie–Hellman share, the
/// PH reader's blinding term. ladder_x_many (ladder_many.h) is its batch
/// form. Precondition: q is affine (not infinity) with x != 0.
std::optional<Fe> ladder_x(const Curve& curve, const Scalar& k,
                           const Point& q);

/// The ladder without the inversion-heavy affine recovery: returns the raw
/// projective accumulators. Pair with recover_from_ladder (one point) or
/// recover_from_ladder_batch (many points, one shared inversion) so
/// protocol-level callers can amortize the 162-squaring Itoh–Tsujii
/// inversion across several point multiplications.
/// Precondition: p is affine (not infinity) with x != 0.
LadderState montgomery_ladder_raw(const Curve& curve, const Scalar& k,
                                  const Point& p,
                                  const LadderOptions& options = {});

/// Fixed-length wide-scalar ladder (the widened entry behind the
/// scalar-blinding countermeasure): starts from ladder_zero_state and
/// processes exactly `iterations` bits of k, MSB (bit iterations-1) first,
/// leading zeros included. Correct for any k < 2^iterations; the result
/// equals (k mod order)·P. The iteration count — and therefore the trace
/// length an adversary sees — is a configuration constant, never a
/// function of the key or the blind. Supports the same LadderOptions
/// (randomization, observer) as montgomery_ladder_raw; observations are
/// delivered with bit_index == the processed bit position.
/// Precondition: p is affine (not infinity) with x != 0.
LadderState montgomery_ladder_fixed_raw(const Curve& curve,
                                        const WideScalar& k,
                                        std::size_t iterations, const Point& p,
                                        const LadderOptions& options = {});

/// Affine form of the fixed-length ladder (recover_from_ladder applied to
/// the raw accumulators).
Point montgomery_ladder_fixed(const Curve& curve, const WideScalar& k,
                              std::size_t iterations, const Point& p,
                              const LadderOptions& options = {});

/// y-recovery after an x-only ladder (López–Dahab): from the affine input
/// point P and the two projective accumulators (X1 : Z1) = kP and
/// (X2 : Z2) = (k+1)P, reconstruct affine kP. This is the key-independent
/// "insecure zone" step the controller runs on the co-processor's outputs
/// (§5's secure/insecure partition). Throws std::logic_error if the
/// recovered point is off-curve (fault-detection canary).
Point recover_from_ladder(const Curve& curve, const Point& p, const Fe& x1,
                          const Fe& z1, const Fe& x2, const Fe& z2);

/// Batch y-recovery: converts many raw ladder outputs to affine points with
/// Montgomery's-trick batch inversion — one field inversion for the whole
/// batch instead of one (previously two) per point. bases[i] is the affine
/// input point of states[i]. Throws std::logic_error if any recovered point
/// is off-curve (same fault canary as recover_from_ladder).
std::vector<Point> recover_from_ladder_batch(
    const Curve& curve, const std::vector<Point>& bases,
    const std::vector<LadderState>& states);

/// Pad a scalar to a fixed bit length of order.bit_length() + 1 by adding
/// the group order once or twice: k and the result act identically on any
/// point of that order, but the bit length (and hence the ladder's
/// iteration count) becomes a key-independent curve constant.
Scalar constant_length_scalar(const Curve& curve, const Scalar& k);

/// Field-operation budget of one ladder iteration (used by the
/// architecture-level model to build the microcode schedule):
/// 6 multiplications, 5 squarings, 3 additions.
struct LadderIterationCost {
  static constexpr int kMultiplications = 6;
  static constexpr int kSquarings = 5;
  static constexpr int kAdditions = 3;
};

}  // namespace medsec::ecc
