#include "layers.h"

#include <utility>

#include "core/mpsc_ring.h"
#include "ecc/fixed_base.h"
#include "ecc/ladder.h"
#include "engine/batch_verifier.h"
#include "engine/shard.h"
#include "engine/transport.h"
#include "gf2m/gf2_163.h"
#include "protocol/wire.h"
#include "rng/xoshiro.h"

namespace perfbench {

namespace {

using medsec::ecc::Fe;
using medsec::ecc::Point;

/// Keeps timed results observable so the optimizer cannot drop the work.
volatile std::uint64_t g_sink = 0;

/// Median over `reps` repetitions of the time per operation. `pass` runs
/// one pass over the operands and returns the operations it performed; a
/// repetition runs passes until its share of `budget_s` is spent.
template <typename Pass>
double ns_per_op(Pass&& pass, double budget_s, int reps = 5) {
  const auto rep_ns = static_cast<std::int64_t>(budget_s * 1e9 / reps);
  pass();  // warm caches and lazy tables
  std::vector<double> per_op;
  for (int rep = 0; rep < reps; ++rep) {
    std::uint64_t ops = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t = t0;
    do {
      ops += pass();
      t = now_ns();
    } while (t - t0 < rep_ns);
    per_op.push_back(static_cast<double>(t - t0) /
                     static_cast<double>(ops ? ops : 1));
  }
  return median(per_op);
}

}  // namespace

void add_layer_metrics(const medsec::ecc::Curve& curve,
                       const LayerOperands& ops, std::uint64_t seed,
                       Result& r) {
  namespace engine = medsec::engine;
  namespace protocol = medsec::protocol;

  std::vector<Point> pts;  // ladder bases: affine, x != 0
  std::vector<Fe> fes;
  for (const Point& p : ops.points)
    if (!p.infinity && !p.x.is_zero()) {
      pts.push_back(p);
      fes.push_back(p.x);
    }
  const bool captured = fes.size() >= 2 && !ops.scalars.empty() &&
                        !ops.point_wires.empty() &&
                        ops.transcripts.size() >= 64 && !ops.frames.empty();
  r.check(captured, "layer operands captured from the workload");
  if (!captured) return;

  // --- gf2m: dependent chains so each op waits for the previous one.
  const double mul_ns = ns_per_op(
      [&] {
        Fe acc = fes[0];
        for (const Fe& f : fes) acc = Fe::mul(acc, f);
        g_sink = g_sink + acc.limb(0);
        return fes.size();
      },
      0.05);
  const double sqr_ns = ns_per_op(
      [&] {
        Fe acc = fes[0];
        for (std::size_t i = 0; i < fes.size(); ++i) acc = Fe::sqr(acc);
        g_sink = g_sink + acc.limb(0);
        return fes.size();
      },
      0.05);
  const double inv_ns = ns_per_op(
      [&] {
        std::uint64_t x = 0;
        for (const Fe& f : fes) x ^= Fe::inv(f).limb(0);
        g_sink = g_sink + x;
        return fes.size();
      },
      0.05);
  r.add("gf2m.mul_ns", mul_ns, "ns");
  r.add("gf2m.sqr_ns", sqr_ns, "ns");
  r.add("gf2m.inv_ns", inv_ns, "ns");

  // --- ecc: ladder on workload points, ct comb on workload scalars.
  const std::size_t n_ecc = std::min<std::size_t>(32, ops.scalars.size());
  const double ladder_ns = ns_per_op(
      [&] {
        std::uint64_t x = 0;
        for (std::size_t i = 0; i < n_ecc; ++i)
          x ^= medsec::ecc::montgomery_ladder(
                   curve, ops.scalars[i], pts[i % pts.size()])
                   .x.limb(0);
        g_sink = g_sink + x;
        return n_ecc;
      },
      0.12);
  const auto& comb = medsec::ecc::generator_comb(curve);
  const double comb_ns = ns_per_op(
      [&] {
        std::uint64_t x = 0;
        for (std::size_t i = 0; i < n_ecc; ++i)
          x ^= comb.mult_ct(ops.scalars[i]).x.limb(0);
        g_sink = g_sink + x;
        return n_ecc;
      },
      0.08);
  const std::size_t n_dec = std::min<std::size_t>(64, ops.point_wires.size());
  bool decode_ok = true;
  const double decode_ns = ns_per_op(
      [&] {
        for (std::size_t i = 0; i < n_dec; ++i)
          decode_ok &= protocol::decode_point(curve, ops.point_wires[i])
                           .has_value();
        return n_dec;
      },
      0.06);
  r.check(decode_ok, "every captured point wire decodes");
  r.add("ecc.ladder_us", ladder_ns / 1e3, "us");
  r.add("ecc.comb_ct_us", comb_ns / 1e3, "us");
  r.add("ecc.decode_point_us", decode_ns / 1e3, "us");

  // --- batch verifier on the workload's own transcripts, 64 at a time.
  const std::size_t batches = ops.transcripts.size() / 64;
  std::vector<bool> expected;  // per-item verdicts, forgeries included
  for (std::size_t i = 0; i < batches * 64; ++i)
    expected.push_back(
        protocol::schnorr_verify(curve, ops.keys[i], ops.transcripts[i]));
  bool batch_ok = true;
  medsec::rng::Xoshiro256 rlc(seed ^ 0xB47C);
  const double batch_ns = ns_per_op(
      [&] {
        for (std::size_t b = 0; b < batches; ++b) {
          const auto out = engine::schnorr_verify_batch(
              curve, std::span(ops.transcripts).subspan(b * 64, 64),
              std::span(ops.keys).subspan(b * 64, 64), rlc);
          for (std::size_t j = 0; j < 64; ++j)
            batch_ok &= out.ok[j] == expected[b * 64 + j];
        }
        return batches * 64;
      },
      0.25, 3);
  r.check(batch_ok,
          "batch verdicts equal single verdicts on workload transcripts");
  const std::size_t n_single = std::min<std::size_t>(64, expected.size());
  const double single_ns = ns_per_op(
      [&] {
        std::size_t accepted = 0;
        for (std::size_t i = 0; i < n_single; ++i)
          accepted += protocol::schnorr_verify(curve, ops.keys[i],
                                               ops.transcripts[i]);
        g_sink = g_sink + accepted;
        return n_single;
      },
      0.12);
  std::vector<std::vector<std::uint8_t>> wires64;
  for (std::size_t i = 0; i < 64; ++i)
    wires64.push_back(ops.point_wires[i % ops.point_wires.size()]);
  const double dec_batch_ns = ns_per_op(
      [&] {
        const auto pts = engine::decode_points_batch(curve, wires64);
        g_sink = g_sink + (pts[0] ? pts[0]->x.limb(0) : 0);
        return pts.size();
      },
      0.06);
  r.add("verifier.batch64_us_per_item", batch_ns / 1e3, "us");
  r.add("verifier.single_us", single_ns / 1e3, "us");
  r.add("verifier.decode_us_per_point", dec_batch_ns / 1e3, "us");

  // --- frame codec on the workload's frames.
  std::vector<engine::Frame> decoded;
  for (const auto& f : ops.frames)
    if (auto d = engine::decode_frame(f)) decoded.push_back(std::move(*d));
  r.check(decoded.size() == ops.frames.size(),
          "captured workload frames decode");
  if (decoded.empty()) return;
  const double decode_frame_ns = ns_per_op(
      [&] {
        std::size_t n = 0;
        for (const auto& f : ops.frames)
          n += engine::decode_frame(f) ? 1 : 0;
        g_sink = g_sink + n;
        return ops.frames.size();
      },
      0.04);
  std::vector<std::uint8_t> buf;
  const double encode_frame_ns = ns_per_op(
      [&] {
        for (const auto& f : decoded) {
          engine::encode_frame_into(f, buf);
          g_sink = g_sink + buf.size();
        }
        return decoded.size();
      },
      0.04);
  r.add("transport.encode_ns", encode_frame_ns, "ns");
  r.add("transport.decode_ns", decode_frame_ns, "ns");

  // --- mailbox hop: try_push + drain of workload datagrams, one thread.
  medsec::core::MpscRing<engine::IngressItem> ring(1, 4096);
  std::vector<engine::IngressItem> items(256);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].session = i + 1;
    items[i].bytes = ops.frames[i % ops.frames.size()];
  }
  bool ring_ok = true;
  const double hop_ns = ns_per_op(
      [&] {
        for (auto& it : items) ring_ok &= ring.try_push(0, std::move(it));
        std::size_t k = 0;
        ring.drain([&](engine::IngressItem&& it) { items[k++] = std::move(it); });
        ring_ok &= k == items.size();
        return items.size();
      },
      0.04);
  r.check(ring_ok, "mailbox hop returns every item");
  r.add("mailbox.hop_ns", hop_ns, "ns");
}

}  // namespace perfbench
