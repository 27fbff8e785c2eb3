#include "sidechannel/countermeasures.h"

#include <stdexcept>
#include <vector>

#include "sidechannel/shuffled_ladder.h"

namespace medsec::sidechannel {

namespace {

using ecc::Curve;
using ecc::Fe;
using ecc::LadderState;
using ecc::Point;
using ecc::Scalar;
using ecc::WideScalar;

using ecc::random_nonzero_fe;

/// (Re)provision the per-key blinding pair and mask P -> P + R — the one
/// implementation behind HardenedLadder::mult and the co-processor
/// planner (same pair lifecycle, same remask-on-degenerate policy).
/// Returns p unchanged when base blinding is off.
Point masked_base_point(const Curve& curve, const CountermeasureConfig& cm,
                        const Scalar& k, const Point& p,
                        rng::RandomSource& rng,
                        std::optional<BaseBlindingPair>& pair,
                        Scalar& pair_key, bool* provisioned = nullptr) {
  if (provisioned != nullptr) *provisioned = false;
  if (!cm.base_point_blinding) return p;
  if (!pair || !(pair_key == k)) {
    pair = BaseBlindingPair::create(curve, k, rng);
    pair_key = k;
    if (provisioned != nullptr) *provisioned = true;
  }
  // P == −R or a masked point with x == 0 (probability ~2^-162) is
  // remasked by one pair update.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Point base = curve.add(p, pair->mask());
    if (!base.infinity && !base.x.is_zero()) return base;
    pair->update(curve);
  }
  throw std::logic_error("countermeasures: degenerate masked base point");
}

}  // namespace

std::string CountermeasureConfig::name() const {
  if (!any()) return "none";
  std::string s;
  const auto append = [&s](const char* part) {
    if (!s.empty()) s += '+';
    s += part;
  };
  if (randomize_projective) append("rpc");
  if (scalar_blinding) append("blind");
  if (base_point_blinding) append("base");
  if (shuffle_schedule) append("shuffle");
  if (validate_points) append("validate");
  if (coherence_check) append("cohere");
  if (infective_computation) append("infect");
  return s;
}

CountermeasureConfig CountermeasureConfig::rpc_only() {
  CountermeasureConfig c;
  c.randomize_projective = true;
  return c;
}

CountermeasureConfig CountermeasureConfig::scalar_blinded() {
  CountermeasureConfig c;
  c.scalar_blinding = true;
  return c;
}

CountermeasureConfig CountermeasureConfig::full() {
  CountermeasureConfig c;
  c.randomize_projective = true;
  c.scalar_blinding = true;
  c.base_point_blinding = true;
  c.shuffle_schedule = true;
  return c;
}

CountermeasureConfig CountermeasureConfig::validated() {
  CountermeasureConfig c;
  c.validate_points = true;
  c.coherence_check = true;
  return c;
}

CountermeasureConfig CountermeasureConfig::infective() {
  CountermeasureConfig c;
  c.validate_points = true;
  c.coherence_check = true;
  c.infective_computation = true;
  // Infective garbage must be unpredictable to the adversary too: pair
  // the response with RPC + blinding so the randomized output draws on
  // the same masked execution the detectors protect.
  c.randomize_projective = true;
  c.scalar_blinding = true;
  return c;
}

WideScalar blind_scalar(const Curve& curve, const Scalar& k, std::uint64_t r) {
  // Barrett reduction: no loop or branch on the secret's bit length.
  return add_scaled(curve.scalar_ring().reduce(k), r, curve.order());
}

std::uint64_t draw_blind(rng::RandomSource& rng, unsigned blind_bits) {
  if (blind_bits == 0 || blind_bits > 64)
    throw std::invalid_argument("draw_blind: blind_bits must be 1..64");
  const std::uint64_t v = rng.next_u64();
  return blind_bits == 64 ? v : v & ((std::uint64_t{1} << blind_bits) - 1);
}

std::size_t blinded_ladder_iterations(const Curve& curve,
                                      unsigned blind_bits) {
  // k' = k + r·n < (2^blind_bits + 1)·n < 2^(blind_bits + bitlen(n) + 1).
  return curve.order().bit_length() + blind_bits + 1;
}

std::size_t hardened_trace_length(const Curve& curve,
                                  const CountermeasureConfig& cm) {
  const std::size_t real =
      cm.scalar_blinding
          ? blinded_ladder_iterations(curve, cm.scalar_blind_bits)
          : curve.order().bit_length();
  return real + (cm.shuffle_schedule ? cm.dummy_iterations : 0);
}

BaseBlindingPair BaseBlindingPair::create(const Curve& curve, const Scalar& k,
                                          rng::RandomSource& rng) {
  BaseBlindingPair pair;
  const Scalar t = rng.uniform_nonzero(curve.order());
  pair.r_ = ecc::montgomery_ladder(curve, t, curve.base_point());
  pair.s_ = ecc::montgomery_ladder(curve, curve.scalar_ring().reduce(k),
                                   pair.r_);
  return pair;
}

void BaseBlindingPair::update(const Curve& curve) {
  r_ = curve.dbl(r_);
  s_ = curve.dbl(s_);
}

HardenedCoprocPlan plan_hardened_coproc_mult(
    const Curve& curve, const CountermeasureConfig& cm, const Scalar& k,
    const Point& p, rng::RandomSource& rng,
    std::optional<BaseBlindingPair>& pair, Scalar& pair_key) {
  HardenedCoprocPlan plan;

  // Base-point blinding first (fixed draw order: pair, blind,
  // Z-randomizers, jitter schedule).
  plan.base = masked_base_point(curve, cm, k, p, rng, pair, pair_key);

  // Scalar encoding: constant-length recoding, widened to the fixed
  // blinded length (neutral-init microcode) when scalar blinding is on —
  // the blind must never show in the iteration count.
  if (cm.scalar_blinding) {
    const WideScalar wide =
        blind_scalar(curve, k, draw_blind(rng, cm.scalar_blind_bits));
    unpack_bits_msb(wide, blinded_ladder_iterations(curve,
                                                    cm.scalar_blind_bits),
                    plan.key_bits);
    plan.options.neutral_init = true;
  } else {
    plan.key_bits = coproc_key_bits(curve, k);
  }

  if (cm.randomize_projective)
    plan.options.z_randomizers = {random_nonzero_fe(rng),
                                  random_nonzero_fe(rng)};

  if (cm.shuffle_schedule) {
    const std::size_t iterations = plan.options.neutral_init
                                       ? plan.key_bits.size()
                                       : plan.key_bits.size() - 1;
    plan.options.dummy_ops.reserve(cm.dummy_iterations);
    for (unsigned d = 0; d < cm.dummy_iterations; ++d) {
      const std::uint64_t word = rng.next_u64();
      plan.options.dummy_ops.push_back(hw::PointMultOptions::DummyOp{
          static_cast<std::uint16_t>(word % (iterations + 1)),
          static_cast<std::uint8_t>((word >> 32) & 1)});
    }
  }
  return plan;
}

VictimRelease guarded_coproc_mult(const Curve& curve,
                                  const CountermeasureConfig& cm,
                                  hw::Coprocessor& coproc, const Scalar& k,
                                  const Point& p, rng::RandomSource& rng,
                                  std::optional<BaseBlindingPair>& pair,
                                  Scalar& pair_key) {
  VictimRelease out;
  const HardenedCoprocPlan plan =
      plan_hardened_coproc_mult(curve, cm, k, p, rng, pair, pair_key);

  // Entry gate: the (masked) base handed to the secure zone must be a
  // curve point. Catches protocol-level invalid-point substitution and a
  // corrupted blinding pair; blind to glitches inside the run.
  bool detected = cm.validate_points &&
                  (plan.base.infinity || !curve.is_on_curve(plan.base));

  hw::PointMultResult r{};
  if (!detected) {
    r = coproc.point_mult(plan.key_bits, plan.base.x, plan.options, nullptr);
    out.cycles = r.exec.cycles;
    out.energy_j = r.energy_j;
    out.seconds = r.seconds;
    // Schedule coherence: the §5 closed form as a runtime check. A
    // skipped instruction or suppressed SELSET is missing cycles even
    // when the arithmetic happens to come out right.
    if (cm.coherence_check &&
        r.exec.cycles !=
            coproc.point_mult_cycles(plan.key_bits.size(), plan.options))
      detected = true;

    // Exit: y-recovery doubles as the ladder-invariant + membership check
    // — it throws iff the (X1,Z1,X2,Z2) state is inconsistent with base·k
    // for any k (off-curve result).
    try {
      out.result = r.result_is_infinity
                       ? Point::at_infinity()
                       : ecc::recover_from_ladder(curve, plan.base, r.x1,
                                                  r.z1, r.x2, r.z2);
      out.recovered = true;
    } catch (const std::logic_error&) {
      // Off-curve state: recovered stays false.
    }
    if (cm.detects_faults() && !out.recovered) detected = true;
  }

  if (cm.base_point_blinding && pair) {
    if (out.recovered)
      out.result = curve.add(out.result, curve.negate(pair->correction()));
    // The pair advances even on a faulty run — a mask is burned the
    // moment it was used, recovered result or not.
    pair->update(curve);
  }

  out.detected = detected;
  if (detected) {
    // Nothing faulty stays behind: the result register may hold faulty
    // key-dependent state too.
    coproc.zeroize(/*keep_result=*/false);
    if (cm.infective_computation) {
      // Infective response: release key-independent garbage so the
      // suppress/release oracle disappears along with the faulty value.
      out.released = true;
      out.infected = true;
      out.x = random_nonzero_fe(rng);
    }
    return out;
  }

  out.released = true;
  // Without a detector the controller releases whatever the affine
  // conversion produced — the §5 controller minus the fault gate.
  out.x = out.recovered ? out.result.x : r.x_affine;
  return out;
}

LadderState shuffled_ladder_raw(
    const Curve& curve, const Point& base,
    const std::vector<std::uint8_t>& real_bits, bool zero_start,
    const std::optional<std::pair<Fe, Fe>>& randomizers,
    unsigned dummy_iterations, rng::RandomSource& rng,
    const ecc::LadderObserver& observer) {
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return shuffled_ladder_raw_t<Ops>(curve, base, real_bits, zero_start,
                                      randomizers, dummy_iterations, rng,
                                      observer);
  });
}

HardenedLadder::HardenedLadder(const Curve& curve,
                               const CountermeasureConfig& config)
    : curve_(&curve), config_(config) {
  if (config_.scalar_blinding &&
      (config_.scalar_blind_bits == 0 || config_.scalar_blind_bits > 64))
    throw std::invalid_argument("HardenedLadder: scalar_blind_bits 1..64");
}

std::size_t HardenedLadder::trace_length() const {
  return hardened_trace_length(*curve_, config_);
}

std::size_t HardenedLadder::rng_bits_per_mult() const {
  std::size_t bits = 0;
  if (config_.randomize_projective) bits += 2 * 163;
  if (config_.scalar_blinding) bits += config_.scalar_blind_bits;
  if (config_.shuffle_schedule) {
    bits += 163;  // decoy x
    if (config_.randomize_projective) bits += 2 * 163;  // decoy randomizers
    // One schedule decision per slot plus one decoy bit per dummy; the
    // ledger models the entropy consumed, not the raw u64 draws.
    bits += trace_length() + config_.dummy_iterations;
  }
  return bits;
}

Point HardenedLadder::mult(const Scalar& k, const Point& p,
                           rng::RandomSource& rng,
                           const ecc::LadderObserver& observer) {
  if (p.infinity) return Point::at_infinity();

  // Base-point blinding first (fixed draw order: pair, blind,
  // Z-randomizers, decoy/schedule).
  const Point base = masked_base_point(*curve_, config_, k, p, rng, pair_,
                                       pair_key_, &last_mult_provisioned_);

  // Scalar blinding second.
  std::optional<WideScalar> wide;
  std::size_t wide_iters = 0;
  if (config_.scalar_blinding) {
    const std::uint64_t r = draw_blind(rng, config_.scalar_blind_bits);
    wide = blind_scalar(*curve_, k, r);
    wide_iters = blinded_ladder_iterations(*curve_, config_.scalar_blind_bits);
  }

  Point out;
  if (!config_.shuffle_schedule) {
    ecc::LadderOptions lo;
    if (config_.randomize_projective) {
      lo.randomize_z = true;
      lo.rng = &rng;
    }
    lo.observer = observer;
    out = wide ? ecc::montgomery_ladder_fixed(*curve_, *wide, wide_iters,
                                              base, lo)
               : ecc::montgomery_ladder(*curve_, k, base, lo);
  } else {
    // Shuffled schedule: draw the real randomizers here (fixed order:
    // blind, then Z-randomizers, then the core's decoy/schedule draws),
    // then hand off to the shared slot engine.
    std::optional<std::pair<Fe, Fe>> rands;
    if (config_.randomize_projective)
      rands = std::make_pair(random_nonzero_fe(rng), random_nonzero_fe(rng));

    std::vector<std::uint8_t> real_bits;
    if (wide) {
      unpack_bits_msb(*wide, wide_iters, real_bits);
    } else {
      const Scalar padded = ecc::constant_length_scalar(*curve_, k);
      unpack_bits_msb(padded, padded.bit_length() - 1, real_bits);
    }

    const LadderState real = shuffled_ladder_raw(
        *curve_, base, real_bits, /*zero_start=*/wide.has_value(), rands,
        config_.dummy_iterations, rng, observer);
    out = ecc::recover_from_ladder(*curve_, base, real.x1, real.z1, real.x2,
                                   real.z2);
  }

  // Undo the base mask with the precomputed correction, then refresh the
  // pair so the next execution wears a different mask.
  if (config_.base_point_blinding) {
    out = curve_->add(out, curve_->negate(pair_->correction()));
    pair_->update(*curve_);
  }
  return out;
}

}  // namespace medsec::sidechannel
