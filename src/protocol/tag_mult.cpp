#include "protocol/tag_mult.h"

#include "ecc/fixed_base.h"
#include "ecc/ladder.h"

namespace medsec::protocol {

ecc::Point tag_mult(const ecc::Curve& curve, const ecc::Scalar& k,
                    const ecc::Point* p, rng::RandomSource& rng,
                    EnergyLedger* ledger,
                    sidechannel::HardenedLadder* hardened) {
  EnergyLedger charge;
  charge.ecpm = 1;
  ecc::Point out;
  if (hardened) {
    out = hardened->mult(k, p ? *p : curve.base_point(), rng);
    charge.rng_bits = hardened->rng_bits_per_mult();
    if (hardened->last_mult_provisioned_pair()) {
      // Base-blinding pair provisioning: two hidden ladders + a draw.
      charge.ecpm += 2;
      charge.rng_bits += 163;
    }
  } else if (p == kGenerator) {
    out = ecc::generator_comb(curve).mult_ct(k);
  } else {
    ecc::LadderOptions lo;
    lo.randomize_z = true;
    lo.rng = &rng;
    out = ecc::montgomery_ladder(curve, k, *p, lo);
    charge.rng_bits = 2 * 163;
  }
  if (ledger) *ledger += charge;
  return out;
}

}  // namespace medsec::protocol
