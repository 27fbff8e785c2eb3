// leakage.h — how switching activity becomes observable power.
//
// §6's core physics: "During the 0→1 transition at the output, a CMOS gate
// consumes power from the source, which is not the case for 0→0, 1→1 or
// 1→0 transitions. This asymmetry is what enables the attacker." Dual-rail
// dynamic styles (SABL, WDDL) force exactly one transition per gate per
// cycle, making consumption data-independent up to layout imbalance — the
// residual the paper's white-box evaluation found ("slight unbalances are
// still present in the layout").
//
// The leakage model maps a cycle's (or iteration's) switching events to a
// power sample:  sample = style(data_dependent) + constant + N(0, sigma).
//
// Two noise samplers coexist:
//   * gaussian() — Box–Muller. The campaign engine's per-trace noise
//     stream (generate_dpa_traces phase 3) is pinned bit for bit by the
//     checked-in golden-vector digests, so this sampler is frozen.
//   * fast_gaussian() — Marsaglia–Tsang ziggurat, ~6x cheaper. The
//     cycle-accurate capture path draws ~10^5 noise samples per trace
//     (one per clock cycle), which made Box–Muller alone a third of the
//     capture cost; cycle_sample and the fused sinks draw from this one.
//     Both sides of any exact-equality comparison must use the same
//     sampler — the ziggurat consumes a variable number of u64 draws.
//
// CycleSampler/LeakageSampleSink fuse the record→sample conversion into
// the co-processor's execution pass (hw::CycleSink): samples appear as
// cycles execute, and nothing needs a materialized record vector.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "ecc/curve.h"
#include "hw/activity.h"
#include "hw/coprocessor.h"
#include "hw/gates.h"
#include "rng/random_source.h"
#include "sidechannel/trace.h"

namespace medsec::sidechannel {

enum class LogicStyle {
  kCmos,  ///< standard cells: power tracks data toggles 1:1
  kWddl,  ///< dual-rail precharge, synthesizable (Tiri et al. [19])
  kSabl,  ///< sense-amplifier based logic, full custom
};

const char* logic_style_name(LogicStyle s);

struct LeakageParams {
  LogicStyle style = LogicStyle::kCmos;
  /// Residual data-dependence of the balanced styles due to layout
  /// imbalance (fraction of the data-dependent component that still
  /// reaches the trace). WDDL routes dual rails with ordinary P&R, so it
  /// is less balanced than hand-crafted SABL.
  double wddl_imbalance = 0.05;
  double sabl_imbalance = 0.015;
  /// Gaussian measurement + environmental noise, in GE-toggle units.
  double noise_sigma = 350.0;
  /// Per-gate constant dynamic cost of the dual-rail styles (they burn
  /// one transition per gate per cycle, data or not).
  double dual_rail_activity = 1.0;
};

/// Convert a data-dependent toggle count to the observable (pre-noise)
/// sample under the given logic style. `baseline_ge` is the cycle's
/// data-independent floor (clock tree, sequencer). Inline: this runs
/// once per modeled clock cycle inside the fused sinks.
inline double style_power(const LeakageParams& p, double data_toggles,
                          double baseline_ge, double total_area_ge) {
  switch (p.style) {
    case LogicStyle::kCmos:
      return data_toggles + baseline_ge;
    case LogicStyle::kWddl:
      // Every dual-rail gate fires once per cycle: a large constant, plus
      // the imbalance-scaled residue of the data component. Area (and the
      // constant) is ~3x the single-rail design.
      return p.dual_rail_activity * total_area_ge *
                 hw::LogicStyleOverhead::kWddl +
             p.wddl_imbalance * data_toggles + baseline_ge;
    case LogicStyle::kSabl:
      return p.dual_rail_activity * total_area_ge *
                 hw::LogicStyleOverhead::kSabl +
             p.sabl_imbalance * data_toggles + baseline_ge;
  }
  return 0.0;
}

/// Register-transfer leakage of one algorithmic-level (per ladder
/// iteration) sample, and the DPA hypothesis: the Hamming weight of the
/// four working registers of a LadderObservation or LadderState.
inline int hamming_weight(const ecc::Fe& v) {
  return std::popcount(v.limb(0)) + std::popcount(v.limb(1)) +
         std::popcount(v.limb(2));
}
template <class Registers>
int register_hw(const Registers& s) {
  return hamming_weight(s.x1) + hamming_weight(s.z1) + hamming_weight(s.x2) +
         hamming_weight(s.z2);
}

/// That sample, pre-noise, over its data-independent floor (clock tree,
/// sequencer).
inline constexpr double kAlgorithmicBaselineGe = 2200.0;
inline double algorithmic_sample(const LeakageParams& p, int hw_state,
                                 double area_ge) {
  return style_power(p, hw::ActivityWeights::kRegisterBit * hw_state,
                     kAlgorithmicBaselineGe, area_ge);
}

/// Per-register clock-branch load skew (§6: layout asymmetry). With
/// uniform gating all six branches fire every cycle and the skews cancel
/// to a constant; with data-dependent gating the fired subset — and hence
/// the amplitude — identifies which register was written ("the mere fact
/// that a different set of registers is gated can be linked ... directly
/// or indirectly to the key"). Order: X1, Z1, X2, Z2, T, XP; skews sum to
/// zero so the uniform-gating total is exactly the nominal tree cost.
inline constexpr double kClockBranchSkew[6] = {+0.15, +0.05, -0.10,
                                               -0.02, +0.04, -0.12};

/// The deterministic (pre-noise) part of a cycle sample: data component
/// weighted per activity.h, plus the skewed clock-tree baseline of the
/// branches that fired.
double cycle_sample_noiseless(const LeakageParams& p,
                              const hw::CycleRecord& rec, double area_ge);

/// Full sample from a co-processor cycle record (adds fast_gaussian
/// noise).
double cycle_sample(const LeakageParams& p, const hw::CycleRecord& rec,
                    double area_ge, rng::RandomSource& noise_rng);

/// Gaussian sample via Box–Muller from a uniform RandomSource. Frozen:
/// the campaign golden vectors pin this sampler's draw-for-draw output.
double gaussian(rng::RandomSource& rng, double sigma);

/// Gaussian sample via the Marsaglia–Tsang ziggurat (128 layers) — the
/// cycle-path noise sampler. Exactly N(0, sigma), deterministic for a
/// given RandomSource stream; consumes one u64 per draw in ~98.8% of
/// draws (more in the wedge/tail rejection cases).
double fast_gaussian(rng::RandomSource& rng, double sigma);

/// Precomputed cycle→sample converter: cycle_sample with the per-branch
/// clock costs and the uniform-gating baseline hoisted out of the loop.
/// operator() is bit-identical to cycle_sample(p, rec, area_ge, rng) —
/// asserted by test.
class CycleSampler {
 public:
  CycleSampler(const LeakageParams& p, double area_ge,
               rng::RandomSource& noise_rng);

  double operator()(const hw::CycleRecord& rec) {
    double baseline;
    if (rec.clocked_reg_mask == 0x3F) {
      baseline = baseline_uniform_;
    } else {
      baseline = 0.0;
      for (int r = 0; r < 6; ++r)
        if (rec.clocked_reg_mask & (1u << r)) baseline += branch_cost_[r];
    }
    const double data =
        hw::ActivityWeights::kRegisterBit * rec.reg_write_toggles +
        hw::ActivityWeights::kLogicNode *
            (rec.logic_toggles + rec.bus_toggles + rec.mux_control_toggles);
    return style_power(params_, data, baseline, area_ge_) +
           fast_gaussian(*rng_, params_.noise_sigma);
  }

 private:
  LeakageParams params_;
  double area_ge_;
  rng::RandomSource* rng_;
  double branch_cost_[6];
  double baseline_uniform_;
};

/// The leakage-sampler sink: fuses cycle_sample into the execution pass.
/// One sample per executed cycle is appended to `out` (reserve it from
/// Coprocessor::point_mult_cycles); when `records` is non-null the raw
/// record stream is materialized alongside, bit-identical to RecordSink.
class LeakageSampleSink final : public hw::CycleSink {
 public:
  LeakageSampleSink(const LeakageParams& p, double area_ge,
                    rng::RandomSource& noise_rng, Trace& out,
                    std::vector<hw::CycleRecord>* records = nullptr)
      : sampler_(p, area_ge, noise_rng), out_(&out), records_(records) {}

  void on_cycle(const hw::CycleRecord& rec, double) override {
    out_->push_back(sampler_(rec));
    if (records_) records_->push_back(rec);
  }

 private:
  CycleSampler sampler_;
  Trace* out_;
  std::vector<hw::CycleRecord>* records_;
};

}  // namespace medsec::sidechannel
