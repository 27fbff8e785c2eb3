// fault_injector.h — the seeded fault-campaign adversary.
//
// A FaultInjector decides, for the n-th point multiplication of a
// campaign, whether a glitch lands and what it does — skip-instruction,
// select glitch, register bit-flip at a chosen cycle, stuck-at on a Reg —
// and hands the Coprocessor a FaultSpec to arm. Every decision is
// counter-derived (splitmix64 over seed × ordinal × lane, the LossyLink
// idiom in engine/transport.h): no hidden state, so a fault campaign is
// bit-reproducible for any thread count or replay order, and two engines
// given the same seed inject the *same* faults into the same operations.
//
// The injector is pure policy; the physics lives in Coprocessor
// (arm_fault / fault_fired). Attack engines (sidechannel/fault_attacks.h)
// bypass the rate draw and arm precise specs directly.
#pragma once

#include <cstdint>

#include "hw/coprocessor.h"
#include "rng/xoshiro.h"

namespace medsec::hw {

/// Shape of the run the fault will land in — the injector scales its
/// derived target coordinates to these bounds.
struct FaultShape {
  std::size_t instructions = 0;  ///< executed instruction count
  std::size_t cycles = 0;        ///< executed cycle count
  std::size_t select_slots = 0;  ///< SELSET-bearing units (steps + dummies)
};

class FaultInjector {
 public:
  /// `rate`: probability that should_fault(n) arms anything at all.
  explicit FaultInjector(std::uint64_t seed, double rate = 0.0)
      : seed_(seed), rate_(rate) {}

  std::uint64_t seed() const { return seed_; }
  double rate() const { return rate_; }

  /// The n-th derivation word on an independent lane (rng::derive_word).
  std::uint64_t word(std::uint64_t n, std::uint64_t lane) const {
    return rng::derive_word(seed_, n, lane);
  }

  /// Does a fault land on the n-th operation of the campaign?
  bool should_fault(std::uint64_t n) const {
    return rate_ > 0.0 && rng::to_unit(word(n, 0)) < rate_;
  }

  /// The fault that lands on operation n (independent of should_fault's
  /// lane, so changing the rate never reshuffles which fault each
  /// operation would receive). All four physical kinds are drawn with
  /// equal weight; coordinates are scaled to `shape`.
  FaultSpec draw(std::uint64_t n, const FaultShape& shape) const {
    FaultSpec f;
    switch (word(n, 1) % 4) {
      case 0:
        f.kind = FaultKind::kSkipInstruction;
        f.slot = shape.instructions
                     ? word(n, 2) % shape.instructions
                     : 0;
        break;
      case 1:
        f.kind = FaultKind::kSelectGlitch;
        f.slot = shape.select_slots ? word(n, 2) % shape.select_slots : 0;
        break;
      case 2:
        f.kind = FaultKind::kBitFlip;
        f.cycle = shape.cycles ? 1 + word(n, 2) % shape.cycles : 1;
        f.reg = static_cast<Reg>(word(n, 3) % kNumRegs);
        f.bit = static_cast<std::uint8_t>(word(n, 4) % gf2m::Gf163::kBits);
        break;
      default:
        f.kind = FaultKind::kStuckAt;
        f.reg = static_cast<Reg>(word(n, 3) % kNumRegs);
        f.bit = static_cast<std::uint8_t>(word(n, 4) % gf2m::Gf163::kBits);
        f.stuck_value = (word(n, 5) & 1) != 0;
        break;
    }
    return f;
  }

 private:
  std::uint64_t seed_;
  double rate_;
};

}  // namespace medsec::hw
