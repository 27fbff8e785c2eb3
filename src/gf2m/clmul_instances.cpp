// clmul_instances.cpp — every instantiation of the formula layers over the
// hardware carry-less multiply policy (ClmulOps), in one translation unit.
//
// CMakeLists.txt compiles this file, and only this file, with -mpclmul on
// x86-64 (-march=armv8-a+crypto on AArch64), so the kernels from
// clmul_hw.h inline into the formulas. Raising the ISA level of the whole
// library instead would let the compiler emit carry-less multiplies
// anywhere it likes, and a host that dispatches to karatsuba would then
// execute them. The `extern template` declarations next to each template
// stop other translation units from instantiating these; the objdump check
// in bench/check_isa_confinement.py verifies on the built library that
// only this object (and the lane kernels) carries the instruction.
//
// The file gathers instantiations from layers above gf2m (ecc,
// sidechannel) on purpose: the confinement is a property of the object
// file, so the clmul code of every layer has to meet in one place.
#include "gf2m/field_ops.h"

#if MEDSEC_HAVE_CLMUL_OPS

#include "ecc/ladder_arith.h"
#include "ecc/point_arith.h"
#include "sidechannel/shuffled_ladder.h"

namespace medsec {

namespace gf2m {
template struct FieldOps<ClmulKernel>;

namespace detail {
constinit const BackendVTable kClmulVTable = make_backend_vtable<ClmulOps>(
    Backend::kClmul, "clmul", &hwclmul::mul326_clmul, &hwclmul::sqr326_clmul);
}  // namespace detail
}  // namespace gf2m

template struct ecc::PointArith<gf2m::ClmulOps>;
template struct ecc::LadderArith<gf2m::ClmulOps>;
template ecc::LadderState sidechannel::shuffled_ladder_raw_t<gf2m::ClmulOps>(
    const ecc::Curve&, const ecc::Point&, const std::vector<std::uint8_t>&,
    bool, const std::optional<std::pair<ecc::Fe, ecc::Fe>>&, unsigned,
    rng::RandomSource&, const ecc::LadderObserver&);

}  // namespace medsec

#endif  // MEDSEC_HAVE_CLMUL_OPS
