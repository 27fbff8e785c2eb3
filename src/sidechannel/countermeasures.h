// countermeasures.h — the pluggable ladder-hardening layer (§7 and the
// classic DPA-countermeasure canon applied to the paper's co-processor).
//
// The paper evaluates one algorithm-level defense (randomized projective
// coordinates) against one attack (DPA). This layer generalizes that into
// a configuration: every knob is an independent switch so the evaluation
// engine (eval.h) can run the full attack × countermeasure matrix and
// show, statistically, which defenses hold:
//
//   * randomize_projective — §7's RPC: (X, Z) *= l per accumulator, fresh
//     l each execution. Breaks the adversary's state prediction unless
//     the randomness is known (white-box).
//   * scalar_blinding — Coron's first countermeasure: run the ladder on
//     k' = k + r·n (n = group order, r fresh). k' acts on any subgroup
//     point exactly like k, but every execution walks a different bit
//     pattern, so per-iteration statistics never accumulate on one key.
//     Needs the *widened* fixed-length ladder (ecc::
//     montgomery_ladder_fixed_raw / ladder_many_wide_into): bitlen(k')
//     varies with r, and padding by iteration count — not by value —
//     keeps the trace length a configuration constant.
//   * base_point_blinding — Coron's third countermeasure: multiply
//     P' = P + R instead of P and correct with the precomputed pair
//     (R, S = k·R): k·P = k·P' − S. The pair is updated by doubling
//     after every use so consecutive executions never share a mask.
//   * shuffle_schedule — randomized dummy-iteration scheduling, the
//     algorithmic answer to the §6 SPA vectors: a fixed number of decoy
//     ladder iterations (on an unrelated decoy state) are interleaved at
//     random positions, so a profiled schedule position no longer names
//     a fixed key bit and averaged traces smear. The *total* iteration
//     count stays constant — countermeasures must not reintroduce the
//     timing channel the MPL closed.
//
// HardenedLadder runs one x-only scalar multiplication under a config;
// the campaign engine (trace_sim) mirrors the same transformations
// through the wide lane layer so attack evaluation runs at full campaign
// throughput. On the cycle-accurate co-processor, plan_hardened_coproc_mult
// encodes one multiplication and guarded_coproc_mult runs it behind the
// chip's fault gate — the one guarded execution that both the shipped
// device (core::SecureEccProcessor) and the fault-attack victim
// (fault_attacks.h) use.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ecc/curve.h"
#include "ecc/ladder.h"
#include "hw/coprocessor.h"
#include "rng/random_source.h"

namespace medsec::sidechannel {

/// One switch per algorithm-level countermeasure. Defaults are all-off
/// (the attackable strawman); presets below name the interesting corners
/// of the evaluation matrix.
struct CountermeasureConfig {
  bool randomize_projective = false;  ///< §7 RPC
  bool scalar_blinding = false;       ///< k' = k + r·n
  unsigned scalar_blind_bits = 32;    ///< width of r, 1..64
  bool base_point_blinding = false;   ///< P' = P + R, pair-corrected
  bool shuffle_schedule = false;      ///< random dummy-iteration placement
  unsigned dummy_iterations = 16;     ///< decoy slots per execution

  // Fault-attack countermeasures (the detection/response column family).
  // Detection alone changes *when* a result is withheld; infective
  // computation changes *what* leaves the device when detection trips.
  /// On-the-fly curve-membership validation: the (masked) base point is
  /// checked at ladder entry and the recovered result at exit. Catches
  /// invalid-point/twist injection; blind to absorbed safe errors.
  bool validate_points = false;
  /// Coherence check on the ladder run: the (X1,Z1,X2,Z2) invariant must
  /// recover an on-curve point AND the executed cycle count must equal
  /// the compiled point_mult_cycles constant. The cycle half is what
  /// catches computationally-absorbed glitches (a skipped SELSET is one
  /// missing cycle even when the math comes out right).
  bool coherence_check = false;
  /// Infective computation: when a detector trips, the device releases a
  /// key-independent random result instead of branching on detection —
  /// the release/suppress oracle the safe-error attack reads disappears.
  /// Requires at least one detector (validate_points or coherence_check).
  bool infective_computation = false;

  bool any() const {
    return randomize_projective || scalar_blinding || base_point_blinding ||
           shuffle_schedule || validate_points || coherence_check ||
           infective_computation;
  }

  /// Any fault detector armed?
  bool detects_faults() const { return validate_points || coherence_check; }

  /// Stable matrix-row label, e.g. "none", "rpc", "validate+cohere+infect".
  std::string name() const;

  static CountermeasureConfig none() { return {}; }
  static CountermeasureConfig rpc_only();
  static CountermeasureConfig scalar_blinded();
  static CountermeasureConfig full();
  /// Detection-only fault hardening: entry/exit validation + coherence.
  static CountermeasureConfig validated();
  /// The fault-hardened flagship: both detectors + infective response.
  static CountermeasureConfig infective();
};

/// k' = (k mod n) + r·n over the group order n: acts like k on every
/// point of order n, walks a fresh bit pattern per execution. The new
/// bigint::add_scaled helper widens the sum so no bit of r is lost.
ecc::WideScalar blind_scalar(const ecc::Curve& curve, const ecc::Scalar& k,
                             std::uint64_t r);

/// Fresh blind of `blind_bits` (1..64) significant bits.
std::uint64_t draw_blind(rng::RandomSource& rng, unsigned blind_bits);

/// Fixed ladder length covering every possible k + r·n at this blind
/// width: order bits + blind_bits + 1 — a configuration constant, never a
/// function of the key or the blind.
std::size_t blinded_ladder_iterations(const ecc::Curve& curve,
                                      unsigned blind_bits);

/// Adversary-visible slots per hardened execution — THE length formula
/// (classic 163 / blinded order+blind+1 real iterations, plus the dummy
/// slots when shuffling). HardenedLadder::trace_length and the campaign
/// engine both delegate here.
std::size_t hardened_trace_length(const ecc::Curve& curve,
                                  const CountermeasureConfig& cm);

/// Coron base-point blinding state: the precomputed update pair
/// (R, S = k·R) for a fixed secret k. update() doubles both halves so the
/// mask changes every execution while k·P = k·(P+R) − S keeps holding.
class BaseBlindingPair {
 public:
  /// Provision a pair for secret k: R = t·G for fresh nonzero t, S = k·R.
  /// (Provisioning-time work: one ladder for R, one for S.)
  static BaseBlindingPair create(const ecc::Curve& curve,
                                 const ecc::Scalar& k,
                                 rng::RandomSource& rng);

  const ecc::Point& mask() const { return r_; }        ///< R
  const ecc::Point& correction() const { return s_; }  ///< S = k·R

  /// (R, S) <- (2R, 2S): still a valid pair for the same k.
  void update(const ecc::Curve& curve);

 private:
  ecc::Point r_;
  ecc::Point s_;
};

/// MSB-first bit expansion: out = bits [first_bit-1 .. 0] of v. The
/// padded-scalar callers pass first_bit = bit_length()-1 (the ladder
/// consumes the leading 1 as its initial state); the wide/blinded
/// callers pass the fixed iteration count (leading zeros included) — one
/// implementation of that boundary for every countermeasure path.
template <typename Int, typename Big>
void unpack_bits_msb(const Big& v, std::size_t first_bit,
                     std::vector<Int>& out) {
  out.clear();
  out.reserve(first_bit);
  for (std::size_t i = first_bit; i-- > 0;)
    out.push_back(static_cast<Int>(v.bit(i) ? 1 : 0));
}

/// The co-processor's key encoding (hw::Coprocessor::point_mult's
/// key_bits): the padded scalar, MSB first, leading 1 included — the
/// chip's init phase consumes it.
inline std::vector<int> coproc_key_bits(const ecc::Curve& curve,
                                        const ecc::Scalar& k) {
  const ecc::Scalar padded = ecc::constant_length_scalar(curve, k);
  std::vector<int> bits;
  unpack_bits_msb(padded, padded.bit_length(), bits);
  return bits;
}

/// The co-processor view of one hardened multiplication: the masked base
/// point, the encoded (possibly blinded / neutral-init) key bits, and
/// the microcode options (Z-randomizers + schedule-jitter units).
struct HardenedCoprocPlan {
  ecc::Point base;
  std::vector<int> key_bits;
  hw::PointMultOptions options;
};

/// Build the co-processor plan for (k, p) under `cm`, drawing from `rng`
/// in THE fixed order — pair provisioning (create / rekey through
/// `pair`/`pair_key`), blind, Z-randomizers, jitter schedule. This is
/// the single implementation behind both cycle-accurate victims
/// (guarded_coproc_mult and capture_cycle_trace), so the determinism
/// contract cannot drift between them. When base blinding is on, the
/// caller owns the correction: subtract pair->correction() from the
/// result, then pair->update().
HardenedCoprocPlan plan_hardened_coproc_mult(
    const ecc::Curve& curve, const CountermeasureConfig& cm,
    const ecc::Scalar& k, const ecc::Point& p, rng::RandomSource& rng,
    std::optional<BaseBlindingPair>& pair, ecc::Scalar& pair_key);

/// One guarded execution: what leaves the device (released / infected /
/// x — all the fault adversary observes) and what its controller reads
/// (the recovered k·P and the run's telemetry).
struct VictimRelease {
  bool released = false;   ///< false: the device suppressed the result
  bool infected = false;   ///< released, but key-independent garbage
  bool detected = false;   ///< some detector tripped
  bool recovered = false;  ///< y-recovery accepted the ladder state
  ecc::Fe x;               ///< the observed x-coordinate (when released)
  ecc::Point result;       ///< k·P, blinding corrected (when recovered)
  std::size_t cycles = 0;  ///< executed co-processor cycles
  double energy_j = 0.0;   ///< energy of the executed run
  double seconds = 0.0;    ///< duration of the executed run
};

/// The chip's guarded execution of k·P on `coproc` under `cm`: plan,
/// entry gate, ladder run, coherence check, y-recovery, base-blinding
/// correction and pair update, zeroize on detection. Both the shipped
/// device (core::SecureEccProcessor::Session, which retries around it)
/// and the eval matrix's fault victim (fault_attacks.h) run this one
/// gate. The fault-countermeasure columns:
///   validate_points   — curve membership of the (masked) base at entry
///                       and of the recovered result at exit;
///   coherence_check   — executed cycles must equal the compiled
///                       point_mult_cycles constant, and the (X1,Z1,X2,Z2)
///                       ladder invariant must recover an on-curve point;
///   infective_computation — a tripped detector releases a random
///                       key-independent x instead of suppressing.
/// A victim with NO detector models the §5 controller without the fault
/// gate: it releases whatever the affine conversion produced, garbage
/// included, and leaves the registers as they are. Faults are armed by
/// the caller on `coproc` beforehand.
VictimRelease guarded_coproc_mult(const ecc::Curve& curve,
                                  const CountermeasureConfig& cm,
                                  hw::Coprocessor& coproc,
                                  const ecc::Scalar& k, const ecc::Point& p,
                                  rng::RandomSource& rng,
                                  std::optional<BaseBlindingPair>& pair,
                                  ecc::Scalar& pair_key);

/// The shuffled-schedule ladder core, shared by HardenedLadder::mult and
/// the campaign simulator: runs the real iteration sequence `real_bits`
/// (MSB first; zero_start selects ladder_zero_state for wide/blinded
/// scalars) interleaved with `dummy_iterations` decoy iterations at
/// rng-chosen positions. The decoy state is built from a random x (and
/// Z-randomized too when `randomizers` is set, so decoy and real slots
/// stay indistinguishable); rng draws, in order: decoy x, [decoy l1, l2],
/// then per-slot schedule/bit draws. The observer sees the registers
/// written at every slot — decoy registers on decoy slots — with
/// bit_index counting down from total-1. Returns the final *real* state.
ecc::LadderState shuffled_ladder_raw(
    const ecc::Curve& curve, const ecc::Point& base,
    const std::vector<std::uint8_t>& real_bits, bool zero_start,
    const std::optional<std::pair<ecc::Fe, ecc::Fe>>& randomizers,
    unsigned dummy_iterations, rng::RandomSource& rng,
    const ecc::LadderObserver& observer);

/// One hardened x-only scalar multiplication engine. Owns the per-key
/// base-blinding pair (rebuilt when the key changes); every other piece
/// of randomness is drawn from the RandomSource passed per call, in a
/// fixed order — (pair provisioning), blind r, Z-randomizers, decoy
/// point, dummy schedule — so a caller that supplies a counter-seeded
/// per-trace RNG gets fully deterministic campaigns.
///
/// Not thread-safe (the pair mutates); use one instance per session, the
/// same discipline as core::SecureEccProcessor::Session.
///
/// Base-point blinding is a fixed-key countermeasure: the pair amortizes
/// across executions of one k. Driving mult() with fresh ephemeral
/// scalars (the protocol-machine wiring) re-provisions the pair — two
/// extra ladders — every call; that cost is the configuration's, not a
/// bug, but prefer rpc/blind/shuffle-only configs for ephemeral-scalar
/// flows.
class HardenedLadder {
 public:
  HardenedLadder(const ecc::Curve& curve, const CountermeasureConfig& config);

  const CountermeasureConfig& config() const { return config_; }

  /// Observer callbacks per multiplication — the adversary-visible trace
  /// length. A configuration constant: 163 classic / 163+blind_bits+1
  /// blinded, plus dummy_iterations when shuffling.
  std::size_t trace_length() const;

  /// Modeled RNG consumption of one mult (for the §4 energy ledgers):
  /// Z-randomizers, blind, decoy state and schedule draws. Blinding-pair
  /// provisioning is excluded (amortized device state, not per-mult) —
  /// callers ledger it via last_mult_provisioned_pair().
  std::size_t rng_bits_per_mult() const;

  /// True when the previous mult() had to (re)provision the base-blinding
  /// pair: two hidden point multiplications plus a 163-bit scalar draw.
  /// Ephemeral-scalar flows (the protocol machines) hit this on every
  /// call; their energy ledgers must charge it.
  bool last_mult_provisioned_pair() const { return last_mult_provisioned_; }

  /// Validated-input k·P under the configured countermeasures. The
  /// observer sees the registers written at every schedule slot (decoy
  /// slots deliver the decoy registers — that is the point).
  ecc::Point mult(const ecc::Scalar& k, const ecc::Point& p,
                  rng::RandomSource& rng,
                  const ecc::LadderObserver& observer = {});

 private:
  const ecc::Curve* curve_;
  CountermeasureConfig config_;
  std::optional<BaseBlindingPair> pair_;
  ecc::Scalar pair_key_{};
  bool last_mult_provisioned_ = false;
};

}  // namespace medsec::sidechannel
