#include "ecc/ladder_many.h"

#include <stdexcept>

#include "ecc/ladder_arith.h"

namespace medsec::ecc {

void LadderManyWorkspace::resize(std::size_t n) {
  s.resize(n);
  tmp.resize(n);
  for (LaneBatch* r : {&b_lanes, &xd, &l1, &l2}) r->resize(n);
  padded.resize(n);
  choices.resize(n);
}

namespace {

/// Shared lockstep engine: validates bases, builds per-lane start states,
/// applies the optional projective randomization and runs `iterations`
/// batched ladder iterations, taking lane j's bit for iteration index i
/// from bit_of(j, i). Both public entries funnel here so the classic and
/// the wide (blinded) ladders cannot drift apart by implementation
/// detail.
template <typename BitFn>
void run_lockstep(const Curve& curve, const Point* ps, std::size_t n,
                  const BatchLadderOptions& options, LadderManyWorkspace& ws,
                  LadderState* out, std::size_t iterations, bool zero_start,
                  BitFn&& bit_of) {
  for (std::size_t i = 0; i < n; ++i) {
    if (ps[i].infinity)
      throw std::invalid_argument("ladder_many: P is infinity");
    if (ps[i].x.is_zero())
      throw std::invalid_argument("ladder_many: x(P) = 0 (order-2 point)");
  }

  ws.resize(n);
  LadderLanes& s = ws.s;

  const Fe b = curve.b();
  ws.b_lanes.fill(b);
  for (std::size_t i = 0; i < n; ++i) ws.xd.set(i, ps[i].x);

  // Start state per lane: the classic entry consumes the scalar's leading
  // 1 as (P, 2P); the wide entry starts from the neutral (O, P) so leading
  // zeros are processed correctly.
  for (std::size_t i = 0; i < n; ++i)
    s.set_lane_state(i, zero_start ? ladder_zero_state(ps[i].x)
                                   : ladder_initial_state(b, ps[i].x));

  if (options.randomizers != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [l1, l2] = options.randomizers[i];
      if (l1.is_zero() || l2.is_zero())
        throw std::invalid_argument("ladder_many: zero randomizer");
      ws.l1.set(i, l1);
      ws.l2.set(i, l2);
    }
    ladder_randomize_t<LaneBatch>(s, ws.l1, ws.l2);
  }

  const bool has_observer = static_cast<bool>(options.observer);

  for (std::size_t i = iterations; i-- > 0;) {
    for (std::size_t j = 0; j < n; ++j) ws.choices[j] = bit_of(j, i);
    // The scalar ladder's iteration, every field op batched across the n
    // lanes.
    ladder_iteration_t<LaneBatch>(ws.b_lanes, curve.b_is_one(), ws.xd, s,
                                  ws.choices.data(), ws.tmp);
    if (has_observer) options.observer(i, s);
  }

  for (std::size_t i = 0; i < n; ++i) out[i] = s.lane_state(i);
}

}  // namespace

void ladder_many_into(const Curve& curve, const Scalar* ks, const Point* ps,
                      std::size_t n, const BatchLadderOptions& options,
                      LadderManyWorkspace& ws, LadderState* out) {
  if (n == 0) return;

  // Constant-length recoding makes every lane's iteration count the same
  // curve constant — the property that lets N ladders run in lockstep at
  // all (and the paper's timing-attack countermeasure).
  ws.padded.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    ws.padded[i] = constant_length_scalar(curve, ks[i]);
  const std::size_t t = curve.order().bit_length() + 1;

  run_lockstep(curve, ps, n, options, ws, out, t - 1, /*zero_start=*/false,
               [&ws](std::size_t j, std::size_t i) -> std::uint8_t {
                 return ws.padded[j].bit(i) ? 1 : 0;
               });
}

void ladder_many_wide_into(const Curve& curve, const WideScalar* ks,
                           std::size_t iterations, const Point* ps,
                           std::size_t n, const BatchLadderOptions& options,
                           LadderManyWorkspace& ws, LadderState* out) {
  if (n == 0) return;
  for (std::size_t i = 0; i < n; ++i)
    if (iterations < ks[i].bit_length())
      throw std::invalid_argument(
          "ladder_many_wide: iteration count does not cover a lane scalar");
  if (iterations > WideScalar::kBits)
    throw std::invalid_argument("ladder_many_wide: iteration count too wide");

  run_lockstep(curve, ps, n, options, ws, out, iterations,
               /*zero_start=*/true,
               [ks](std::size_t j, std::size_t i) -> std::uint8_t {
                 return ks[j].bit(i) ? 1 : 0;
               });
}

void ladder_x_many(const Curve& curve, const Scalar* ks, const Point* qs,
                   std::size_t n, LadderManyWorkspace& ws,
                   std::optional<Fe>* out) {
  std::vector<LadderState> states(n);
  ladder_many_into(curve, ks, qs, n, {}, ws, states.data());
  gf2m::with_field_ops([&]<class Ops>(Ops) {
    LadderArith<Ops>::x_only_batch(states.data(), n, out);
  });
}

std::vector<LadderState> ladder_many(const Curve& curve, const Scalar* ks,
                                     const Point* ps, std::size_t n,
                                     const BatchLadderOptions& options) {
  std::vector<LadderState> out(n);
  LadderManyWorkspace ws;
  ladder_many_into(curve, ks, ps, n, options, ws, out.data());
  return out;
}

}  // namespace medsec::ecc
