// ladder_many.h — N Montgomery ladders in lockstep over the batch field
// layer.
//
// The paper's campaigns run the *same* fixed-length ladder thousands of
// times on independent (scalar, point) pairs: every execution performs an
// identical 162-iteration schedule of field operations, differing only in
// data. That makes the whole campaign embarrassingly lane-parallel — this
// file steps N independent ladders through one shared iteration loop, with
// every field operation batched across lanes (Gf163xN), so the wide
// backends — VPCLMULQDQ ZMM/YMM (8–16 lanes register-resident) and
// interleaved clmul — see long runs of independent products instead of
// one latency-bound dependency chain.
// Callers that size batches from active_lane_vtable()->preferred_width
// (the campaign engine uses 4x) retarget onto wider silicon with no
// code changes.
//
// Two users: the DPA campaign engine, which drives the raw lockstep
// states, and the serving shards, whose deferred PH and ECIES key
// multiplications run through ladder_x_many — the lanes plus one batch
// inversion, the batch form of the constant-time ecc::ladder_x.
//
// Bit-exactness contract: lane i of ladder_many() evolves through exactly
// the field operations (same fusions, same order) of the scalar
// montgomery_ladder_raw(), so per-lane observations — the trace
// simulator's leakage taps — are bit-identical to a serial run. It holds
// by construction: the iteration and the Z-randomization are the
// ladder_core.h templates over Gf163xN. The determinism tests assert it;
// the lane tests also check against affine double-and-add.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "ecc/curve.h"
#include "ecc/ladder.h"
#include "gf2m/gf163_lanes.h"

namespace medsec::ecc {

using LaneBatch = gf2m::Gf163xN;

/// The four working registers of N lockstep ladders.
struct LadderLanes : LadderStateT<LaneBatch> {
  void resize(std::size_t n) {
    for (LaneBatch* r : {&x1, &z1, &x2, &z2}) r->resize(n);
  }
  std::size_t lanes() const { return x1.lanes(); }

  LadderState lane_state(std::size_t i) const {
    return LadderState{x1.get(i), z1.get(i), x2.get(i), z2.get(i)};
  }
  void set_lane_state(std::size_t i, const LadderState& v) {
    x1.set(i, v.x1);
    z1.set(i, v.z1);
    x2.set(i, v.x2);
    z2.set(i, v.z2);
  }
  /// Register-transfer Hamming weight of lane i (the DPA leakage unit;
  /// matches hamming weight of the scalar LadderObservation registers).
  int hamming_weight(std::size_t i) const {
    return x1.hamming_weight(i) + z1.hamming_weight(i) +
           x2.hamming_weight(i) + z2.hamming_weight(i);
  }

  /// Bulk form: out[i] = hamming_weight(lane i) for all lanes, walking
  /// the twelve limb arrays contiguously (what the campaign tap calls
  /// once per iteration instead of N scattered per-lane reads).
  void hamming_weights(int* out) const {
    for (std::size_t i = 0; i < lanes(); ++i) out[i] = 0;
    x1.hamming_weights_add(out);
    z1.hamming_weights_add(out);
    x2.hamming_weights_add(out);
    z2.hamming_weights_add(out);
  }
};

struct BatchLadderOptions {
  /// Per-lane Z-randomizers (n pairs; the §7 randomized-projective-
  /// coordinates countermeasure), or nullptr for the unrandomized ladder.
  const std::pair<Fe, Fe>* randomizers = nullptr;
  /// Called after every iteration with the lockstep register state
  /// (bit_index counts down, exactly like LadderObservation::bit_index).
  std::function<void(std::size_t bit_index, const LadderLanes&)> observer;
};

/// All buffers one batched ladder needs, reusable call to call: the
/// campaign engine keeps one per worker thread and runs thousands of
/// trace blocks through it without touching the allocator.
struct LadderManyWorkspace {
  LadderLanes s;
  LadderTempsT<LaneBatch> tmp;
  LaneBatch b_lanes, xd, l1, l2;
  std::vector<Scalar> padded;
  std::vector<std::uint8_t> choices;
  void resize(std::size_t n);
};

/// Run n independent ladders (ks[i], ps[i]) in lockstep; returns the raw
/// projective accumulators per lane (pair with recover_from_ladder_batch
/// for affine outputs). Preconditions per lane as montgomery_ladder_raw:
/// ps[i] affine with x != 0; nonzero randomizers when provided.
std::vector<LadderState> ladder_many(const Curve& curve, const Scalar* ks,
                                     const Point* ps, std::size_t n,
                                     const BatchLadderOptions& options = {});

/// Allocation-reusing form: writes the n raw states to `out`.
void ladder_many_into(const Curve& curve, const Scalar* ks, const Point* ps,
                      std::size_t n, const BatchLadderOptions& options,
                      LadderManyWorkspace& ws, LadderState* out);

/// Wide fixed-length form (the lane face of the scalar-blinding
/// countermeasure): every lane starts from ladder_zero_state and steps
/// exactly `iterations` bits of its WideScalar, leading zeros included —
/// the lockstep mirror of montgomery_ladder_fixed_raw, bit-identical to
/// it lane by lane (observations included). Preconditions per lane:
/// ks[i] < 2^iterations, ps[i] affine with x != 0.
void ladder_many_wide_into(const Curve& curve, const WideScalar* ks,
                           std::size_t iterations, const Point* ps,
                           std::size_t n, const BatchLadderOptions& options,
                           LadderManyWorkspace& ws, LadderState* out);

/// Batch form of ladder_x: out[i] = x(ks[i]·qs[i]), nullopt where the
/// product is O — ladder_many_into, then one batch inversion over the n Z
/// coordinates. The results equal ladder_x's. Preconditions per job as
/// ladder_x.
void ladder_x_many(const Curve& curve, const Scalar* ks, const Point* qs,
                   std::size_t n, LadderManyWorkspace& ws,
                   std::optional<Fe>* out);

}  // namespace medsec::ecc
