// fault_attacks.h — computational-fault adversaries against the guarded
// co-processor victim: the chip's own fault gate, guarded_coproc_mult
// (countermeasures.h), the same execution the shipped device retries.
//
// The timing/power matrix (eval.h) assumes the device always computes
// correctly; these engines drop that assumption. A glitch adversary arms
// one hw::FaultSpec per execution and reads what the device *releases*:
//
//   * safe-error (select glitch): suppress one SELSET and watch whether
//     the released result is still the correct k·P. On the fully regular
//     MPL the glitched step is computationally absorbed iff the attacked
//     key bit equals the stale routing select — so correct-vs-garbage
//     releases spell out the key's bit transitions, one per shot. Scalar
//     blinding and shuffling randomize which bit a slot names; the
//     coherence check detects even absorbed glitches (a skipped SELSET is
//     one missing cycle against the compiled point_mult_cycles constant),
//     and infective computation destroys the correct/garbage oracle
//     itself.
//   * invalid-point injection (stuck-at on XP): force one bit of the base
//     register so the ladder runs on an off-curve x̃. Every released
//     faulty output the attacker can reproduce on their own device
//     confirms key residues in the small subgroups x̃ drags in (scored
//     here as the standard ~2-bits-per-confirmed-probe leak model, the
//     same ground-truth-scoring convention the DPA engines use). Scalar
//     blinding randomizes those residues per run; point validation and
//     the coherence canary catch the off-curve state before anything
//     usable leaves the device.
//
// Both engines are seeded and counter-derived: same seed, same faults,
// same verdict, any thread count.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ecc/curve.h"
#include "sidechannel/countermeasures.h"

namespace medsec::sidechannel {

struct FaultAttackResult {
  double accuracy = 0.0;    ///< recovered-bit accuracy vs ground truth
  bool key_recovered = false;  ///< every attacked bit correct
  std::size_t shots = 0;       ///< faulted executions performed
  /// Shots whose release actually leaked (matched the attacker's
  /// prediction); 0 = the oracle is dead and the attacker guessed.
  std::size_t informative_shots = 0;
};

/// Safe-error attack: one select glitch per ladder slot, slots
/// 0..bits_to_attack-1, released output compared against the device's own
/// fault-free k·P.
FaultAttackResult safe_error_attack(const ecc::Curve& curve,
                                    const CountermeasureConfig& cm,
                                    const ecc::Scalar& k,
                                    std::size_t bits_to_attack,
                                    std::uint64_t seed);

/// Invalid-point injection: stuck-at faults on XP force an off-curve x̃;
/// each released output the attacker reproduces on their own device
/// credits two key bits (CRT over the small subgroups, scored against
/// ground truth).
FaultAttackResult invalid_point_attack(const ecc::Curve& curve,
                                       const CountermeasureConfig& cm,
                                       const ecc::Scalar& k,
                                       std::size_t bits_to_attack,
                                       std::uint64_t seed);

}  // namespace medsec::sidechannel
