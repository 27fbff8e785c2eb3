#include "ecc/ladder_many.h"

#include <stdexcept>

#include "ecc/ladder_arith.h"

namespace medsec::ecc {

void ladder_add_lanes(const LaneBatch& xd, const LaneBatch& x1,
                      const LaneBatch& z1, const LaneBatch& x2,
                      const LaneBatch& z2, LaneBatch& xa, LaneBatch& za,
                      LaneLadderScratch& scr) {
  LaneBatch::mul(x1, z2, scr.t);
  LaneBatch::mul(x2, z1, scr.u);
  LaneBatch::add(scr.t, scr.u, scr.s);
  LaneBatch::sqr(scr.s, za);
  LaneBatch::mul_add_mul(xd, za, scr.t, scr.u, xa);  // xd·za + t·u
}

void ladder_double_lanes(const LaneBatch& b, bool b_is_one,
                         const LaneBatch& x, const LaneBatch& z,
                         LaneBatch& x3, LaneBatch& z3, LaneLadderScratch& scr) {
  LaneBatch::sqr(x, scr.xs);
  LaneBatch::sqr(z, scr.zs);
  LaneBatch::mul(scr.xs, scr.zs, z3);
  if (b_is_one) {
    LaneBatch::add(scr.xs, scr.zs, scr.zss);
    LaneBatch::sqr(scr.zss, x3);  // (xs + zs)^2
  } else {
    LaneBatch::sqr(scr.zs, scr.zss);
    LaneBatch::sqr_add_mul(scr.xs, b, scr.zss, x3);  // xs^2 + b·zs^2
  }
}

void LadderManyWorkspace::resize(std::size_t n) {
  s.resize(n);
  scr.resize(n);
  b_lanes.resize(n);
  xd.resize(n);
  xa.resize(n);
  za.resize(n);
  xdbl.resize(n);
  zdbl.resize(n);
  rand_lanes.resize(n);
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
  for (std::size_t i = 0; i < n; ++i) {
    const LadderState init = zero_start ? ladder_zero_state(ps[i].x)
                                        : ladder_initial_state(b, ps[i].x);
    s.x1.set(i, init.x1);
    s.z1.set(i, init.z1);
    s.x2.set(i, init.x2);
    s.z2.set(i, init.z2);
  }

  if (options.randomizers != nullptr) {
    LaneBatch& l = ws.rand_lanes;
    for (std::size_t i = 0; i < n; ++i) {
      if (options.randomizers[i].first.is_zero() ||
          options.randomizers[i].second.is_zero())
        throw std::invalid_argument("ladder_many: zero randomizer");
      l.set(i, options.randomizers[i].first);
    }
    LaneBatch::mul(s.x1, l, s.x1);
    LaneBatch::mul(s.z1, l, s.z1);
    for (std::size_t i = 0; i < n; ++i)
      l.set(i, options.randomizers[i].second);
    LaneBatch::mul(s.x2, l, s.x2);
    LaneBatch::mul(s.z2, l, s.z2);
  }

  const bool has_observer = static_cast<bool>(options.observer);

  for (std::size_t i = iterations; i-- > 0;) {
    for (std::size_t j = 0; j < n; ++j) ws.choices[j] = bit_of(j, i);

    // One lockstep ladder_iteration: cswap / add+double / cswap, every
    // field op batched across the n lanes.
    LaneBatch::cswap(ws.choices.data(), s.x1, s.x2);
    LaneBatch::cswap(ws.choices.data(), s.z1, s.z2);
    ladder_add_lanes(ws.xd, s.x1, s.z1, s.x2, s.z2, ws.xa, ws.za, ws.scr);
    ladder_double_lanes(ws.b_lanes, curve.b_is_one(), s.x1, s.z1, ws.xdbl,
                        ws.zdbl, ws.scr);
    std::swap(s.x1, ws.xdbl);
    std::swap(s.z1, ws.zdbl);
    std::swap(s.x2, ws.xa);
    std::swap(s.z2, ws.za);
    LaneBatch::cswap(ws.choices.data(), s.x1, s.x2);
    LaneBatch::cswap(ws.choices.data(), s.z1, s.z2);

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
