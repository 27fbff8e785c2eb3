// shuffled_ladder.h — the shuffled-schedule ladder core, templated over a
// field policy.
//
// This is the body of sidechannel::shuffled_ladder_raw (countermeasures.h
// documents its contract and rng draw order). The public function reads
// the field backend once and runs the matching instantiation, so the real
// and the decoy iterations all run on one inlined kernel. The ClmulOps
// instantiation lives only in gf2m/clmul_instances.cpp (see
// gf2m/field_ops.h).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ecc/ladder_arith.h"
#include "rng/random_source.h"

namespace medsec::sidechannel {

template <class Ops>
ecc::LadderState shuffled_ladder_raw_t(
    const ecc::Curve& curve, const ecc::Point& base,
    const std::vector<std::uint8_t>& real_bits, bool zero_start,
    const std::optional<std::pair<ecc::Fe, ecc::Fe>>& randomizers,
    unsigned dummy_iterations, rng::RandomSource& rng,
    const ecc::LadderObserver& observer) {
  using ecc::Fe;
  using ecc::LadderState;
  using Ladder = ecc::LadderArith<Ops>;
  if (base.infinity || base.x.is_zero())
    throw std::invalid_argument("shuffled_ladder_raw: bad base point");
  const Fe b = curve.b();
  const Fe x = base.x;

  LadderState real =
      zero_start ? ecc::ladder_zero_state_t(x) : Ladder::initial_state(b, x);
  if (randomizers) {
    if (randomizers->first.is_zero() || randomizers->second.is_zero())
      throw std::invalid_argument("shuffled_ladder_raw: zero randomizer");
    Ladder::randomize(real, randomizers->first, randomizers->second);
  }

  // Decoy state from an unrelated random x; Z-randomized under the same
  // policy as the real state so the two register banks look alike.
  const Fe decoy_x = ecc::random_nonzero_fe(rng);
  LadderState decoy = Ladder::initial_state(b, decoy_x);
  if (randomizers) {
    const Fe l1 = ecc::random_nonzero_fe(rng);  // draw order is the contract:
    const Fe l2 = ecc::random_nonzero_fe(rng);  // never inline into the call
    Ladder::randomize(decoy, l1, l2);
  }

  const std::size_t total = real_bits.size() + dummy_iterations;
  std::size_t dummies_left = dummy_iterations;
  std::size_t next_real = 0;
  const bool has_observer = static_cast<bool>(observer);
  for (std::size_t s = 0; s < total; ++s) {
    // Sequential sampling (Knuth's algorithm S): every placement of the
    // D decoys among the `total` slots is equally likely.
    const std::size_t slots_left = total - s;
    const bool is_dummy =
        dummies_left > 0 && rng.uniform(slots_left) < dummies_left;
    std::uint64_t bit;
    LadderState* st;
    const Fe* xd;
    if (is_dummy) {
      --dummies_left;
      bit = rng.next_u64() & 1;
      st = &decoy;
      xd = &decoy_x;
    } else {
      bit = real_bits[next_real++];
      st = &real;
      xd = &x;
    }
    ecc::ladder_iteration_t<Ops>(b, *xd, *st, bit);
    if (has_observer) {
      observer(ecc::LadderObservation{
          .bit_index = total - 1 - s,
          .key_bit = static_cast<int>(bit),
          .x1 = st->x1,
          .z1 = st->z1,
          .x2 = st->x2,
          .z2 = st->z2,
      });
    }
  }
  return real;
}

#if MEDSEC_HAVE_CLMUL_OPS
extern template ecc::LadderState shuffled_ladder_raw_t<gf2m::ClmulOps>(
    const ecc::Curve&, const ecc::Point&, const std::vector<std::uint8_t>&,
    bool, const std::optional<std::pair<ecc::Fe, ecc::Fe>>&, unsigned,
    rng::RandomSource&, const ecc::LadderObserver&);
#endif

}  // namespace medsec::sidechannel
