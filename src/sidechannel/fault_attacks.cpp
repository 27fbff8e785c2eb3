#include "sidechannel/fault_attacks.h"

#include "ecc/ladder.h"
#include "rng/xoshiro.h"

namespace medsec::sidechannel {

namespace {

using ecc::Curve;
using ecc::Fe;
using ecc::Point;
using ecc::Scalar;
using gf2m::Gf163;

Gf163 bit_mask(unsigned b) {
  std::uint64_t l[3] = {0, 0, 0};
  l[b / 64] = 1ULL << (b % 64);
  return Gf163{l[0], l[1], l[2]};
}

}  // namespace

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

  const std::vector<int> truth = coproc_key_bits(curve, k);
  const std::size_t bits =
      std::min(bits_to_attack, truth.size() - 1);

  FaultAttackResult res;
  res.shots = bits;
  std::vector<int> absorbed(bits, 0);
  for (std::size_t s = 0; s < bits; ++s) {
    rng::Xoshiro256 run_rng(rng::derive_word(seed, s, 0));
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
      guess[s] = static_cast<int>(rng::derive_word(seed, s, 7) & 1);
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
  const std::vector<int> truth = coproc_key_bits(curve, k);
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
        static_cast<unsigned>(rng::derive_word(seed, t, 1) % Gf163::kBits);
    const bool stuck = !p.x.bit(b);
    hw::FaultSpec f;
    f.kind = hw::FaultKind::kStuckAt;
    f.reg = hw::Reg::kXP;
    f.bit = static_cast<std::uint8_t>(b);
    f.stuck_value = stuck;
    coproc.arm_fault(f);
    rng::Xoshiro256 run_rng(rng::derive_word(seed, t, 2));
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
    const int g = static_cast<int>(rng::derive_word(seed, i, 8) & 1);
    if (g == truth[i + 1]) ++correct;
  }
  res.accuracy = bits ? static_cast<double>(correct) / bits : 0.0;
  res.key_recovered = bits > 0 && credited == bits;
  return res;
}

}  // namespace medsec::sidechannel
