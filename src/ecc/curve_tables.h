// curve_tables.h — the tables built once per curve parameter set.
//
// Every device commitment, ECIES encapsulation and key generation reads
// the generator's comb, and every reader-side k·G + l·Q on K-163 reads the
// Koblitz reduction constants. They are built together on the first
// lookup of a parameter set (a, b, G, n, h) and kept for the life of the
// process. The Curve that asked keeps a pointer to them, so each later
// lookup through it is one atomic load with no lock; a Curve constructed
// later — at a recycled address, say — starts without a pointer and finds
// the entry of its own parameters under the registry's lock.
#pragma once

#include <optional>

#include "ecc/curve.h"
#include "ecc/fixed_base.h"
#include "ecc/koblitz.h"

namespace medsec::ecc::detail {

struct CurveTables {
  explicit CurveTables(const Curve& c);

  const Curve curve;                        ///< the key, by value
  const FixedBaseComb comb;                 ///< generator_comb
  /// generator_tau_precomp; also G's odd multiples in double_scalar_mult
  const TauNafPrecomp tau_precomp;
  const std::optional<TauReducer> reducer;  ///< tau_reducer
};

}  // namespace medsec::ecc::detail
