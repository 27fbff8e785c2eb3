#include "sidechannel/dpa.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/thread_pool.h"
#include "ecc/ladder_many.h"

namespace medsec::sidechannel {

namespace {

using ecc::Curve;
using ecc::Fe;
using ecc::LadderState;

double predict(const LadderState& s) {
  return static_cast<double>(register_hw(s));
}

/// Shared input validation + attacker-side initial states (the recovered
/// prefix is empty; white-box folds the known randomizers in).
std::vector<LadderState> attacker_initial_states(const Curve& curve,
                                                 const DpaExperiment& exp) {
  const std::size_t n = exp.traces.traces.size();
  if (n < 4) throw std::invalid_argument("ladder_dpa_attack: too few traces");
  if (exp.base_points.size() != n)
    throw std::invalid_argument("ladder_dpa_attack: base point count");
  if (exp.true_bits.empty())
    throw std::invalid_argument(
        "ladder_dpa_attack: experiment has no ground truth to score "
        "against (randomize_scalar campaigns are TVLA material)");
  const bool white_box = exp.scenario == RpcScenario::kEnabledKnownRandomness;
  if (white_box && exp.known_randomizers.size() != n)
    throw std::invalid_argument("ladder_dpa_attack: randomizer count");

  const Fe b = curve.b();
  std::vector<LadderState> state(n);
  for (std::size_t j = 0; j < n; ++j) {
    state[j] = ecc::ladder_initial_state(b, exp.base_points[j].x);
    if (white_box) {
      const auto& [l1, l2] = exp.known_randomizers[j];
      ecc::randomize_ladder_state(state[j], l1, l2);
    }
  }
  return state;
}

void score_result(const DpaExperiment& exp, std::size_t bits, DpaResult& res) {
  // Score (the only place ground truth is consulted). true_bits[0] is the
  // padded leading 1, consumed before iteration 0.
  for (std::size_t i = 0; i < bits; ++i)
    if (i + 1 < exp.true_bits.size() &&
        res.recovered_bits[i] == exp.true_bits[i + 1])
      ++res.bits_correct;
  res.accuracy = bits ? static_cast<double>(res.bits_correct) /
                            static_cast<double>(bits)
                      : 0.0;
  res.full_success = res.bits_correct == bits;
}

/// Per-block statistic accumulators for one target bit: CPA co-moments
/// for both hypotheses, plus the DoM partition stats.
struct BlockStats {
  PearsonAcc cpa0, cpa1;
  RunningStats dom0_lo, dom0_hi, dom1_lo, dom1_hi;
  void reset() { *this = BlockStats{}; }
};

}  // namespace

DpaResult ladder_dpa_attack(const Curve& curve, const DpaExperiment& exp,
                            const DpaConfig& config) {
  const std::size_t n = exp.traces.traces.size();
  std::vector<LadderState> state = attacker_initial_states(curve, exp);

  const std::size_t trace_len = exp.traces.length();
  const std::size_t bits =
      config.bits_to_attack < trace_len ? config.bits_to_attack : trace_len;

  const Fe b = curve.b();

  // Candidate states for both hypotheses, all traces — written by the
  // blocked extension, swapped into `state` once the bit is decided.
  std::vector<LadderState> cand0(n), cand1(n);

  // Fixed reduction geometry: kBlock traces per accumulator block, merged
  // in block order. Lane width and thread count never change the values.
  constexpr std::size_t kBlock = 256;
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  std::vector<BlockStats> acc(blocks);

  const std::size_t lanes =
      config.lanes ? config.lanes
                   : 4 * gf2m::active_lane_vtable()->preferred_width;
  std::unique_ptr<core::ThreadPool> own;
  core::ThreadPool* pool =
      n > kBlock ? core::ThreadPool::for_config(config.threads, own) : nullptr;

  DpaResult res;
  res.recovered_bits.reserve(bits);

  for (std::size_t i = 0; i < bits; ++i) {
    auto extend_block = [&](std::size_t b0, std::size_t b1) {
      // Reusable per-worker lane scratch (sized on first use, kept
      // across bits, blocks and attacks).
      thread_local ecc::LadderLanes st;
      thread_local ecc::LadderTempsT<ecc::LaneBatch> tmp;
      thread_local ecc::LaneBatch xd, blanes, xa, za, xd0, zd0, xd1, zd1;

      for (std::size_t blk = b0; blk < b1; ++blk) {
        const std::size_t lo = blk * kBlock;
        const std::size_t hi = std::min(n, lo + kBlock);
        BlockStats& bs = acc[blk];
        bs.reset();

        for (std::size_t g0 = lo; g0 < hi; g0 += lanes) {
          const std::size_t gn = std::min(lanes, hi - g0);
          if (st.lanes() != gn) {
            st.resize(gn);
            tmp.resize(gn);
            for (ecc::LaneBatch* r : {&xd, &blanes, &xa, &za, &xd0, &zd0,
                                      &xd1, &zd1})
              r->resize(gn);
          }
          // Every group: the scratch outlives this attack, and a previous
          // one on this thread may have run on another curve.
          blanes.fill(b);
          for (std::size_t l = 0; l < gn; ++l) {
            st.set_lane_state(l, state[g0 + l]);
            xd.set(l, exp.base_points[g0 + l].x);
          }

          // The differential add is swap-symmetric, so both hypotheses
          // share it; only the doubling differs (hyp 0 doubles the low
          // accumulator, hyp 1 the high one). One add + two doublings
          // replaces the reference path's two full ladder iterations.
          ecc::ladder_add_t<ecc::LaneBatch>(xd, st.x1, st.z1, st.x2, st.z2, xa,
                                            za, tmp);
          ecc::ladder_double_t<ecc::LaneBatch>(blanes, curve.b_is_one(), st.x1,
                                               st.z1, xd0, zd0, tmp);
          ecc::ladder_double_t<ecc::LaneBatch>(blanes, curve.b_is_one(), st.x2,
                                               st.z2, xd1, zd1, tmp);

          for (std::size_t l = 0; l < gn; ++l) {
            const std::size_t j = g0 + l;
            cand0[j] = LadderState{xd0.get(l), zd0.get(l), xa.get(l),
                                   za.get(l)};
            cand1[j] = LadderState{xa.get(l), za.get(l), xd1.get(l),
                                   zd1.get(l)};
            const double sample = exp.traces.traces[j][i];
            if (config.statistic == DpaStatistic::kCpa) {
              const double shared_hw = xa.hamming_weight(l) +
                                       za.hamming_weight(l);
              const double p0 = shared_hw + xd0.hamming_weight(l) +
                                zd0.hamming_weight(l);
              const double p1 = shared_hw + xd1.hamming_weight(l) +
                                zd1.hamming_weight(l);
              bs.cpa0.add(p0, sample);
              bs.cpa1.add(p1, sample);
            } else {
              // DoM partitions on the predicted LSB of X1 per hypothesis.
              (cand0[j].x1.bit(0) ? bs.dom0_hi : bs.dom0_lo).add(sample);
              (cand1[j].x1.bit(0) ? bs.dom1_hi : bs.dom1_lo).add(sample);
            }
          }
        }
      }
    };

    if (pool != nullptr)
      pool->parallel_for(blocks, 1, extend_block);
    else
      extend_block(0, blocks);

    // In-order merge, then the bit decision — identical for any fan-out.
    double s0 = 0, s1 = 0;
    if (config.statistic == DpaStatistic::kCpa) {
      PearsonAcc m0, m1;
      for (const BlockStats& bsa : acc) {
        m0.merge(bsa.cpa0);
        m1.merge(bsa.cpa1);
      }
      s0 = std::abs(m0.correlation());
      s1 = std::abs(m1.correlation());
    } else {
      RunningStats g0l, g0h, g1l, g1h;
      for (const BlockStats& bsa : acc) {
        g0l.merge(bsa.dom0_lo);
        g0h.merge(bsa.dom0_hi);
        g1l.merge(bsa.dom1_lo);
        g1h.merge(bsa.dom1_hi);
      }
      s0 = dom_z(g0l, g0h);
      s1 = dom_z(g1l, g1h);
    }

    const int decision = s1 > s0 ? 1 : 0;
    res.recovered_bits.push_back(decision);
    res.stat_correct_hyp.push_back(decision ? s1 : s0);
    res.stat_rejected_hyp.push_back(decision ? s0 : s1);
    std::swap(state, decision ? cand1 : cand0);
  }

  score_result(exp, bits, res);
  return res;
}

DpaResult ladder_dpa_attack_reference(const Curve& curve,
                                      const DpaExperiment& exp,
                                      const DpaConfig& config) {
  const std::size_t n = exp.traces.traces.size();
  std::vector<LadderState> state = attacker_initial_states(curve, exp);

  const std::size_t trace_len = exp.traces.length();
  const std::size_t bits =
      config.bits_to_attack < trace_len ? config.bits_to_attack : trace_len;

  const Fe b = curve.b();

  DpaResult res;
  res.recovered_bits.reserve(bits);
  std::vector<LadderState> cand0(n), cand1(n);
  std::vector<double> pred0(n), pred1(n), column(n);

  for (std::size_t i = 0; i < bits; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cand0[j] = state[j];
      ecc::ladder_iteration(b, exp.base_points[j].x, cand0[j], 0);
      cand1[j] = state[j];
      ecc::ladder_iteration(b, exp.base_points[j].x, cand1[j], 1);
      pred0[j] = predict(cand0[j]);
      pred1[j] = predict(cand1[j]);
      column[j] = exp.traces.traces[j][i];
    }

    double s0 = 0, s1 = 0;
    if (config.statistic == DpaStatistic::kCpa) {
      s0 = std::abs(pearson(pred0, column));
      s1 = std::abs(pearson(pred1, column));
    } else {
      // DoM: partition traces by the predicted value of one state bit
      // (the LSB of X1 under each hypothesis) and compare group means.
      for (int hyp = 0; hyp < 2; ++hyp) {
        RunningStats g0, g1;
        for (std::size_t j = 0; j < n; ++j) {
          const LadderState& c = hyp ? cand1[j] : cand0[j];
          (c.x1.bit(0) ? g1 : g0).add(column[j]);
        }
        (hyp ? s1 : s0) = dom_z(g0, g1);
      }
    }

    const int decision = s1 > s0 ? 1 : 0;
    res.recovered_bits.push_back(decision);
    res.stat_correct_hyp.push_back(decision ? s1 : s0);
    res.stat_rejected_hyp.push_back(decision ? s0 : s1);
    for (std::size_t j = 0; j < n; ++j)
      state[j] = decision ? cand1[j] : cand0[j];
  }

  score_result(exp, bits, res);
  return res;
}

std::vector<DpaSweepRow> dpa_trace_count_sweep(
    const Curve& curve, const ecc::Scalar& k, RpcScenario scenario,
    const std::vector<std::size_t>& trace_counts, const DpaConfig& config,
    const AlgorithmicSimConfig& sim) {
  std::vector<DpaSweepRow> rows;
  rows.reserve(trace_counts.size());
  for (const std::size_t count : trace_counts) {
    AlgorithmicSimConfig s = sim;
    s.seed = sim.seed + count;  // fresh campaign per count
    const DpaExperiment exp =
        generate_dpa_traces(curve, k, count, scenario, s);
    const DpaResult r = ladder_dpa_attack(curve, exp, config);
    rows.push_back(DpaSweepRow{count, scenario, r.accuracy, r.full_success});
  }
  return rows;
}

}  // namespace medsec::sidechannel
