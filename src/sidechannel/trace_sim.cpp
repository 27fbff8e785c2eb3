#include "sidechannel/trace_sim.h"

#include <memory>
#include <stdexcept>

#include "core/thread_pool.h"
#include "ecc/ladder_many.h"
#include "rng/xoshiro.h"

namespace medsec::sidechannel {

namespace {

using ecc::Curve;
using ecc::Fe;
using ecc::Point;
using ecc::Scalar;

using ecc::random_nonzero_fe;

constexpr std::uint64_t kNoiseSalt = 0xA5A5'5A5A'C0DE'F00Dull;

/// One random point of the prime-order subgroup with x != 0, drawn from
/// this trace's private RNG. Decompression + one doubling: pick a random
/// x, solve the curve equation via the half-trace (succeeds for half the
/// field), then double the point — the doubling image 2E *is* the
/// prime-order subgroup for these cofactor-2 curves. Two inversions per
/// candidate instead of the full 162-iteration ladder the serial path
/// pays per base point.
Point random_subgroup_point(const Curve& c, rng::RandomSource& rng) {
  for (;;) {
    bigint::U192 v;
    for (std::size_t i = 0; i < 3; ++i) v.set_limb(i, rng.next_u64());
    const Fe x = Fe::from_bits(v);
    if (x.is_zero()) continue;
    const int y_bit = static_cast<int>(rng.next_u64() & 1);
    const auto p = c.decompress({x, y_bit});
    if (!p) continue;
    const Point q = c.dbl(*p);
    if (q.infinity || q.x.is_zero()) continue;
    return q;
  }
}

/// Random points via the ladder (the PR 2 path, kept for the serial
/// baseline): projective ladder raw + one shared batch inversion.
std::vector<Point> random_subgroup_points_ladder(const Curve& c,
                                                 rng::RandomSource& rng,
                                                 std::size_t n) {
  std::vector<Point> out;
  out.reserve(n);
  while (out.size() < n) {
    const std::size_t want = n - out.size();
    std::vector<Point> bases(want, c.base_point());
    std::vector<ecc::LadderState> states;
    states.reserve(want);
    for (std::size_t i = 0; i < want; ++i)
      states.push_back(ecc::montgomery_ladder_raw(
          c, rng.uniform_nonzero(c.order()), c.base_point()));
    for (const Point& p : ecc::recover_from_ladder_batch(c, bases, states))
      if (!p.infinity && !p.x.is_zero()) out.push_back(p);
  }
  return out;
}

}  // namespace

const char* rpc_scenario_name(RpcScenario s) {
  switch (s) {
    case RpcScenario::kDisabled:
      return "RPC disabled";
    case RpcScenario::kEnabledKnownRandomness:
      return "RPC enabled, randomness known (white-box)";
    case RpcScenario::kEnabledSecretRandomness:
      return "RPC enabled, randomness secret";
  }
  return "?";
}

DpaExperiment generate_dpa_traces(const Curve& curve, const Scalar& k,
                                  std::size_t num_traces,
                                  RpcScenario scenario,
                                  const AlgorithmicSimConfig& config) {
  DpaExperiment out;
  out.scenario = scenario;
  // With randomize_scalar no single ground truth exists (every trace ran
  // its own k); leave true_bits empty so feeding such an experiment to
  // the key-recovery attacks fails loudly instead of scoring against a
  // scalar no trace executed.
  if (!config.randomize_scalar) out.true_bits = coproc_key_bits(curve, k);
  // The victim's countermeasure set: explicit config wins; otherwise the
  // scenario maps to the historical none / rpc-only pair.
  const CountermeasureConfig cm = config.countermeasures.value_or(
      scenario != RpcScenario::kDisabled ? CountermeasureConfig::rpc_only()
                                         : CountermeasureConfig::none());
  const std::size_t trace_len = hardened_trace_length(curve, cm);
  const bool white_box = scenario == RpcScenario::kEnabledKnownRandomness;
  const bool randomize = cm.randomize_projective;

  // All campaign storage up front: no allocation happens inside the
  // per-trace loop (satellite contract; also what makes the block tasks
  // free of shared mutable state beyond their own rows).
  out.traces.traces.assign(num_traces, Trace(trace_len));
  out.base_points.assign(num_traces, Point::at_infinity());
  if (white_box)
    out.known_randomizers.assign(num_traces, {Fe::one(), Fe::one()});

  // Auto lane width: several times the backend's natural granularity —
  // wider blocks amortize the per-block scalar work (seed derivation,
  // point generation, workspace fill) without hurting cache residency.
  const std::size_t lanes =
      config.lanes ? config.lanes
                   : 4 * gf2m::active_lane_vtable()->preferred_width;
  const double area_ge = hw::ecc_coprocessor_ge(163, 4);

  // Derived from the one length formula (hardened_trace_length), not
  // re-derived: real ladder iterations = slots minus the dummy slots.
  const std::size_t real_iters =
      trace_len - (cm.shuffle_schedule ? cm.dummy_iterations : 0);
  const std::size_t top = trace_len - 1;  // first slot's bit index

  // Every lane of a block shares the victim scalar k (unless
  // randomize_scalar draws a fresh one per trace).
  auto process_block = [&](std::size_t j0, std::size_t j1) {
    // Per-worker scratch, reused across every block this thread runs.
    thread_local ecc::LadderManyWorkspace ws;
    thread_local std::vector<Scalar> ks;
    thread_local std::vector<ecc::WideScalar> wks;
    thread_local std::vector<Point> ps;
    thread_local std::vector<std::pair<Fe, Fe>> rands;
    thread_local std::vector<ecc::LadderState> states;
    thread_local std::vector<std::uint8_t> real_bits;
    const std::size_t n = j1 - j0;
    ks.resize(n);
    if (cm.scalar_blinding) wks.resize(n);
    ps.resize(n);
    rands.resize(n);
    states.resize(n);

    // Phase 1: per-trace inputs from each trace's private RNG. Draw
    // order — scalar, base point, blinding mask, blind, Z-randomizers,
    // then (shuffled schedules only) the slot engine's decoy/schedule
    // stream — is part of the determinism contract. Trace j's randomness
    // is a pure function of (seed, j), so the campaign's output cannot
    // depend on how traces are grouped into lanes or scheduled onto
    // threads.
    for (std::size_t j = j0; j < j1; ++j) {
      rng::Xoshiro256 rng(rng::mix_seed(config.seed, j));
      const Scalar kj =
          config.randomize_scalar ? rng.uniform_nonzero(curve.order()) : k;
      ks[j - j0] = kj;
      const Point p = config.fixed_base_point
                          ? *config.fixed_base_point
                          : random_subgroup_point(curve, rng);
      out.base_points[j] = p;
      // Base-point blinding: the victim ladders P + R for a fresh mask R
      // the adversary never sees; base_points keeps the *known* input P.
      Point masked = p;
      if (cm.base_point_blinding) {
        for (;;) {
          masked = curve.add(p, random_subgroup_point(curve, rng));
          if (!masked.infinity && !masked.x.is_zero()) break;
        }
      }
      ps[j - j0] = masked;
      if (cm.scalar_blinding)
        wks[j - j0] =
            blind_scalar(curve, kj, draw_blind(rng, cm.scalar_blind_bits));
      if (randomize) {
        const Fe l1 = random_nonzero_fe(rng);
        const Fe l2 = random_nonzero_fe(rng);
        rands[j - j0] = {l1, l2};
        if (white_box) out.known_randomizers[j] = {l1, l2};
      }

      if (cm.shuffle_schedule) {
        // Shuffled schedules interleave per-trace decoy iterations at
        // secret positions — inherently per-trace control flow, so this
        // config runs the scalar slot engine per trace (still counter-
        // seeded and pool-parallel) instead of the lockstep lanes.
        if (cm.scalar_blinding) {
          unpack_bits_msb(wks[j - j0], real_iters, real_bits);
        } else {
          const Scalar padded = ecc::constant_length_scalar(curve, kj);
          unpack_bits_msb(padded, padded.bit_length() - 1, real_bits);
        }
        Trace& row = out.traces.traces[j];
        const auto observer = [&](const ecc::LadderObservation& ob) {
          row[top - ob.bit_index] =
              algorithmic_sample(config.leakage, register_hw(ob), area_ge);
        };
        shuffled_ladder_raw(curve, masked, real_bits,
                            /*zero_start=*/cm.scalar_blinding,
                            randomize ? std::make_optional(rands[j - j0])
                                      : std::nullopt,
                            cm.dummy_iterations, rng, observer);
      }
    }

    // Phase 2: the victim ladders, `n` lanes in lockstep (classic or
    // wide/blinded). The leakage tap writes the noiseless register-
    // transfer sample straight into each lane's preallocated trace row.
    // No affine recovery: the campaign consumes leakage, not points.
    if (!cm.shuffle_schedule) {
      ecc::BatchLadderOptions bo;
      if (randomize) bo.randomizers = rands.data();
      thread_local std::vector<int> hw_buf;
      hw_buf.resize(n);
      bo.observer = [&](std::size_t bit_index, const ecc::LadderLanes& s) {
        const std::size_t sample = top - bit_index;
        s.hamming_weights(hw_buf.data());
        for (std::size_t lane = 0; lane < n; ++lane)
          out.traces.traces[j0 + lane][sample] =
              algorithmic_sample(config.leakage, hw_buf[lane], area_ge);
      };
      if (cm.scalar_blinding)
        ecc::ladder_many_wide_into(curve, wks.data(), real_iters, ps.data(),
                                   n, bo, ws, states.data());
      else
        ecc::ladder_many_into(curve, ks.data(), ps.data(), n, bo, ws,
                              states.data());
    }

    // Phase 3: measurement noise, one private stream per trace (drawn in
    // sample order, so the values match any other lane/thread geometry).
    for (std::size_t j = j0; j < j1; ++j) {
      rng::Xoshiro256 noise_rng(rng::mix_seed(config.seed ^ kNoiseSalt, j));
      Trace& t = out.traces.traces[j];
      for (std::size_t i = 0; i < trace_len; ++i)
        t[i] += gaussian(noise_rng, config.leakage.noise_sigma);
    }
  };

  std::unique_ptr<core::ThreadPool> own;
  core::ThreadPool* pool =
      num_traces > lanes ? core::ThreadPool::for_config(config.threads, own)
                         : nullptr;
  if (pool == nullptr) {
    for (std::size_t j0 = 0; j0 < num_traces; j0 += lanes)
      process_block(j0, std::min(num_traces, j0 + lanes));
  } else {
    pool->parallel_for(num_traces, lanes, process_block);
  }
  return out;
}

DpaExperiment generate_dpa_traces_serial(const Curve& curve, const Scalar& k,
                                         std::size_t num_traces,
                                         RpcScenario scenario,
                                         const AlgorithmicSimConfig& config) {
  DpaExperiment out;
  out.scenario = scenario;
  out.true_bits = coproc_key_bits(curve, k);
  out.traces.traces.reserve(num_traces);
  out.base_points.reserve(num_traces);

  rng::Xoshiro256 rng(config.seed);
  rng::Xoshiro256 noise_rng(config.seed ^ 0x9E3779B97F4A7C15ull);

  // Batch-generate the per-trace base points up front (one shared
  // inversion for the whole campaign instead of two per trace).
  std::vector<Point> points;
  if (!config.fixed_base_point)
    points = random_subgroup_points_ladder(curve, rng, num_traces);

  const double area_ge = hw::ecc_coprocessor_ge(163, 4);
  for (std::size_t j = 0; j < num_traces; ++j) {
    const Point p =
        config.fixed_base_point ? *config.fixed_base_point : points[j];
    out.base_points.push_back(p);

    ecc::LadderOptions lo;
    if (scenario != RpcScenario::kDisabled) {
      const Fe l1 = random_nonzero_fe(rng);
      const Fe l2 = random_nonzero_fe(rng);
      lo.known_randomizers = std::make_pair(l1, l2);
      if (scenario == RpcScenario::kEnabledKnownRandomness)
        out.known_randomizers.emplace_back(l1, l2);
    }

    Trace trace;
    trace.reserve(out.true_bits.size());
    lo.observer = [&](const ecc::LadderObservation& ob) {
      trace.push_back(
          algorithmic_sample(config.leakage, register_hw(ob), area_ge) +
          gaussian(noise_rng, config.leakage.noise_sigma));
    };
    montgomery_ladder(curve, k, p, lo);
    out.traces.traces.push_back(std::move(trace));
  }
  return out;
}

CycleVictimPlan plan_cycle_victim(const Curve& curve, const Scalar& k,
                                  const Point& p,
                                  const CycleSimConfig& config) {
  if (p.infinity || p.x.is_zero())
    throw std::invalid_argument("capture_cycle_trace: bad base point");

  rng::Xoshiro256 rng(config.seed);

  CycleVictimPlan out;
  out.true_bits = coproc_key_bits(curve, k);
  out.noise_seed = config.seed ^ 0xA5A5'5A5A'1234'8765ull;

  // The same planner SecureEccProcessor::Session uses — one
  // implementation of the mask/blind/Z-randomizer/jitter draw order, so
  // the two cycle-accurate victims cannot drift apart. The blinding pair
  // is per-capture state here (the campaign consumes leakage, never the
  // correction).
  std::optional<BaseBlindingPair> pair;
  ecc::Scalar pair_key{};
  out.plan = plan_hardened_coproc_mult(curve, config.countermeasures, k, p,
                                       rng, pair, pair_key);
  return out;
}

namespace {

/// One fused capture into caller-provided storage, reusing a caller-owned
/// co-processor (its register file is reset by point_mult): the averaged
/// capture's block tasks run many captures through one co-processor and
/// its compiled schedules. `samples` is cleared and reserved exactly from
/// the compiled schedule's cycle total.
void capture_cycle_trace_into(const Curve& curve, const Scalar& k,
                              const Point& p, const CycleSimConfig& config,
                              hw::Coprocessor& cop, Trace& samples,
                              std::vector<hw::CycleRecord>* records) {
  const CycleVictimPlan victim = plan_cycle_victim(curve, k, p, config);
  rng::Xoshiro256 noise_rng(victim.noise_seed);

  const std::size_t cycles =
      cop.point_mult_cycles(victim.plan.key_bits.size(), victim.plan.options);
  samples.clear();
  samples.reserve(cycles);
  if (records) {
    records->clear();
    records->reserve(cycles);
  }
  LeakageSampleSink sink(config.leakage, cop.area_ge(), noise_rng, samples,
                         records);
  cop.point_mult(victim.plan.key_bits, victim.plan.base.x,
                 victim.plan.options, &sink);
}

}  // namespace

CycleTrace capture_cycle_trace(const Curve& curve, const Scalar& k,
                               const Point& p, const CycleSimConfig& config) {
  hw::Coprocessor cop(config.coproc);
  CycleTrace out;
  out.true_bits = coproc_key_bits(curve, k);
  out.area_ge = cop.area_ge();
  capture_cycle_trace_into(curve, k, p, config, cop, out.samples,
                           config.keep_records ? &out.records : nullptr);
  return out;
}

CycleTrace capture_cycle_trace_reference(const Curve& curve, const Scalar& k,
                                         const Point& p,
                                         const CycleSimConfig& config) {
  hw::Coprocessor cop(config.coproc);

  const CycleVictimPlan victim = plan_cycle_victim(curve, k, p, config);
  rng::Xoshiro256 noise_rng(victim.noise_seed);

  CycleTrace out;
  out.true_bits = victim.true_bits;
  out.area_ge = cop.area_ge();
  out.records.reserve(
      cop.point_mult_cycles(victim.plan.key_bits.size(), victim.plan.options));
  hw::RecordSink sink(out.records);
  cop.point_mult(victim.plan.key_bits, victim.plan.base.x,
                 victim.plan.options, &sink);
  out.samples.reserve(out.records.size());
  for (const auto& rec : out.records)
    out.samples.push_back(cycle_sample_noiseless(config.leakage, rec,
                                                 out.area_ge) +
                          gaussian(noise_rng, config.leakage.noise_sigma));
  return out;
}

void dispatch_capture_blocks(
    std::size_t n, std::size_t threads,
    const std::function<void(std::size_t, std::size_t)>& run_block) {
  std::unique_ptr<core::ThreadPool> own;
  core::ThreadPool* pool =
      n > 1 ? core::ThreadPool::for_config(threads, own) : nullptr;
  if (pool == nullptr) {
    run_block(0, n);
    return;
  }
  // Blocks of a few captures per chunk: enough runners stay busy while
  // each chunk amortizes its block-local state (the reused co-processor
  // and its compiled schedules) across the captures it runs.
  const std::size_t grain =
      std::max<std::size_t>(1, n / (4 * (pool->size() + 1)));
  pool->parallel_for(n, grain, run_block);
}

CycleTrace capture_averaged_cycle_trace(const Curve& curve, const Scalar& k,
                                        const Point& p,
                                        const CycleSimConfig& config,
                                        std::size_t num_captures) {
  if (num_captures == 0)
    throw std::invalid_argument("capture_averaged_cycle_trace: 0 captures");

  // Cycle-accurate captures are independent (each gets its own derived
  // seed), so blocks of them fan out across the pool — each block task
  // reuses ONE co-processor (and its compiled schedules) for all its
  // captures. The fold below runs in capture order, making the average
  // bit-identical to the serial loop at any thread count.
  CycleTrace acc;
  std::vector<Trace> extra(num_captures > 1 ? num_captures - 1 : 0);
  dispatch_capture_blocks(
      num_captures, config.threads, [&](std::size_t b, std::size_t e) {
        hw::Coprocessor cop(config.coproc);
        for (std::size_t j = b; j < e; ++j) {
          if (j == 0) {
            acc.true_bits = coproc_key_bits(curve, k);
            acc.area_ge = cop.area_ge();
            capture_cycle_trace_into(curve, k, p, config, cop, acc.samples,
                                     config.keep_records ? &acc.records
                                                         : nullptr);
          } else {
            CycleSimConfig c2 = config;
            c2.seed = averaged_capture_seed(config.seed, j);
            capture_cycle_trace_into(curve, k, p, c2, cop, extra[j - 1],
                                     /*records=*/nullptr);
          }
        }
      });
  for (std::size_t j = 0; j < extra.size(); ++j)
    for (std::size_t i = 0; i < acc.samples.size(); ++i)
      acc.samples[i] += extra[j][i];
  for (double& s : acc.samples) s /= static_cast<double>(num_captures);
  return acc;
}

}  // namespace medsec::sidechannel
