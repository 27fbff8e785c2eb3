#include "sidechannel/fault_attacks.h"

#include <stdexcept>

#include "ecc/ladder.h"
#include "rng/xoshiro.h"

namespace medsec::sidechannel {

namespace {

using ecc::Curve;
using ecc::Fe;
using ecc::Point;
using ecc::Scalar;
using gf2m::Gf163;

/// Counter-derived attack randomness (the LossyLink idiom): the n-th word
/// of lane `lane` under `seed`.
std::uint64_t attack_word(std::uint64_t seed, std::uint64_t n,
                          std::uint64_t lane) {
  std::uint64_t s = seed ^ (0xD1B54A32D192ED03ULL * (n + 1)) ^
                    (0x9E3779B97F4A7C15ULL * lane);
  return rng::splitmix64(s);
}

Gf163 bit_mask(unsigned b) {
  std::uint64_t l[3] = {0, 0, 0};
  l[b / 64] = 1ULL << (b % 64);
  return Gf163{l[0], l[1], l[2]};
}

/// MSB-first classic padded key bits of k — the ground truth the attacks
/// are scored against (scoring-only knowledge, the DPA convention).
std::vector<int> padded_key_bits(const Curve& curve, const Scalar& k) {
  const Scalar padded = ecc::constant_length_scalar(curve, k);
  std::vector<int> bits;
  unpack_bits_msb(padded, padded.bit_length(), bits);
  return bits;
}

}  // namespace

VictimRelease guarded_coproc_mult(const Curve& curve,
                                  const CountermeasureConfig& cm,
                                  hw::Coprocessor& coproc, const Scalar& k,
                                  const Point& p, rng::RandomSource& rng,
                                  std::optional<BaseBlindingPair>& pair,
                                  Scalar& pair_key) {
  VictimRelease out;
  const HardenedCoprocPlan plan =
      plan_hardened_coproc_mult(curve, cm, k, p, rng, pair, pair_key);

  bool detected = false;
  // Entry gate: the (masked) base handed to the secure zone must be a
  // curve point. Catches protocol-level invalid-point substitution and a
  // corrupted blinding pair; blind to glitches inside the run.
  if (cm.validate_points &&
      (plan.base.infinity || !curve.is_on_curve(plan.base)))
    detected = true;

  hw::PointMultResult r{};
  bool ran = false;
  if (!detected) {
    r = coproc.point_mult(plan.key_bits, plan.base.x, plan.options, nullptr);
    out.cycles = r.exec.cycles;
    ran = true;
    // Schedule coherence: the §5 closed form as a runtime check. A
    // skipped instruction or suppressed SELSET is missing cycles even
    // when the arithmetic happens to come out right.
    if (cm.coherence_check &&
        r.exec.cycles !=
            coproc.point_mult_cycles(plan.key_bits.size(), plan.options))
      detected = true;
  }

  // Exit: y-recovery doubles as the ladder-invariant + membership check —
  // it throws iff the (X1,Z1,X2,Z2) state is inconsistent with base·k for
  // any k (off-curve result).
  Point result = Point::at_infinity();
  bool recovered = false;
  if (ran) {
    try {
      result = r.result_is_infinity
                   ? Point::at_infinity()
                   : ecc::recover_from_ladder(curve, plan.base, r.x1, r.z1,
                                              r.x2, r.z2);
      recovered = true;
    } catch (const std::logic_error&) {
      recovered = false;
    }
    if (cm.detects_faults() && !recovered) detected = true;
  }

  if (recovered && cm.base_point_blinding && pair)
    result = curve.add(result, curve.negate(pair->correction()));
  if (cm.base_point_blinding && pair) pair->update(curve);

  out.detected = detected;
  if (detected) {
    coproc.zeroize(/*keep_result=*/false);
    if (cm.infective_computation) {
      // Infective response: release key-independent garbage so the
      // suppress/release oracle disappears along with the faulty value.
      out.released = true;
      out.infected = true;
      out.x = ecc::random_nonzero_fe(rng);
    }
    return out;
  }

  out.released = true;
  // Without a detector the controller releases whatever the affine
  // conversion produced — the §5 controller minus the fault gate.
  out.x = recovered ? result.x : r.x_affine;
  return out;
}

FaultAttackResult safe_error_attack(const Curve& curve,
                                    const CountermeasureConfig& cm,
                                    const Scalar& k,
                                    std::size_t bits_to_attack,
                                    std::uint64_t seed) {
  hw::Coprocessor coproc;
  std::optional<BaseBlindingPair> pair;
  Scalar pair_key{};

  const Point p = curve.base_point();
  // Clean or absorbed executions always release exactly k·P (the base-
  // blinding correction restores it), so the attacker's reference is one
  // fault-free observation.
  const Point ref = ecc::montgomery_ladder(curve, k.mod(curve.order()), p);

  const std::vector<int> truth = padded_key_bits(curve, k);
  const std::size_t bits =
      std::min(bits_to_attack, truth.size() - 1);

  FaultAttackResult res;
  res.shots = bits;
  std::vector<int> absorbed(bits, 0);
  for (std::size_t s = 0; s < bits; ++s) {
    rng::Xoshiro256 run_rng(attack_word(seed, s, 0));
    hw::FaultSpec f;
    f.kind = hw::FaultKind::kSelectGlitch;
    f.slot = s;
    coproc.arm_fault(f);
    const VictimRelease rel =
        guarded_coproc_mult(curve, cm, coproc, k, p, run_rng, pair, pair_key);
    coproc.disarm_fault();
    absorbed[s] =
        (rel.released && !rel.infected && !ref.infinity && rel.x == ref.x)
            ? 1
            : 0;
    if (absorbed[s]) ++res.informative_shots;
  }

  // Reconstruction. The routing select entering slot s is the previously
  // processed bit (0 before the first step); an absorbed glitch means the
  // attacked bit equals it, a garbage/suppressed release means it
  // differs. A dead oracle (nothing ever absorbed — detection suppressed
  // or infected every shot) leaves the attacker guessing coins.
  std::vector<int> guess(bits, 0);
  if (res.informative_shots == 0) {
    for (std::size_t s = 0; s < bits; ++s)
      guess[s] = static_cast<int>(attack_word(seed, s, 7) & 1);
  } else {
    int prev = 0;
    for (std::size_t s = 0; s < bits; ++s) {
      guess[s] = absorbed[s] ? prev : 1 - prev;
      prev = guess[s];
    }
  }

  std::size_t correct = 0;
  for (std::size_t s = 0; s < bits; ++s)
    if (guess[s] == truth[s + 1]) ++correct;  // truth[0] = the leading 1
  res.accuracy = bits ? static_cast<double>(correct) / bits : 0.0;
  res.key_recovered = bits > 0 && correct == bits;
  return res;
}

FaultAttackResult invalid_point_attack(const Curve& curve,
                                       const CountermeasureConfig& cm,
                                       const Scalar& k,
                                       std::size_t bits_to_attack,
                                       std::uint64_t seed) {
  hw::Coprocessor coproc;
  hw::Coprocessor sim;  // the attacker's own device
  std::optional<BaseBlindingPair> pair;
  Scalar pair_key{};

  const Point p = curve.base_point();
  const std::vector<int> truth = padded_key_bits(curve, k);
  const std::size_t bits = std::min(bits_to_attack, truth.size() - 1);
  const std::size_t probes = (bits + 1) / 2;

  FaultAttackResult res;
  res.shots = probes;
  std::size_t credited = 0;
  for (std::size_t t = 0; t < probes && credited < bits; ++t) {
    // Aim a stuck-at at XP so the secure zone ladders on an off-curve x̃:
    // the attacker knows the protocol-visible base x, so forcing the
    // complement of one of its bits guarantees x̃ ≠ x.
    const auto b =
        static_cast<unsigned>(attack_word(seed, t, 1) % Gf163::kBits);
    const bool stuck = !p.x.bit(b);
    hw::FaultSpec f;
    f.kind = hw::FaultKind::kStuckAt;
    f.reg = hw::Reg::kXP;
    f.bit = static_cast<std::uint8_t>(b);
    f.stuck_value = stuck;
    coproc.arm_fault(f);
    rng::Xoshiro256 run_rng(attack_word(seed, t, 2));
    const VictimRelease rel =
        guarded_coproc_mult(curve, cm, coproc, k, p, run_rng, pair, pair_key);
    coproc.disarm_fault();

    // Ground-truth simulation of the x̃-ladder on the attacker's device.
    // (In the field this is an enumeration of k's residues in the small
    // subgroups x̃ drags in; scored here with the true k, the standard
    // leak-model shortcut — each reproduced release confirms ~2 bits.)
    const Fe x_tilde = p.x + bit_mask(b);  // stuck == complement: one flip
    const auto sim_r = sim.point_mult(truth, x_tilde, {}, nullptr);
    if (rel.released && !rel.infected && rel.x == sim_r.x_affine) {
      credited += 2;
      ++res.informative_shots;
    }
  }
  credited = std::min(credited, bits);

  // Uncredited bits are coin guesses (chance accuracy when the defense
  // holds).
  std::size_t correct = credited;
  for (std::size_t i = credited; i < bits; ++i) {
    const int g = static_cast<int>(attack_word(seed, i, 8) & 1);
    if (g == truth[i + 1]) ++correct;
  }
  res.accuracy = bits ? static_cast<double>(correct) / bits : 0.0;
  res.key_recovered = bits > 0 && credited == bits;
  return res;
}

}  // namespace medsec::sidechannel
