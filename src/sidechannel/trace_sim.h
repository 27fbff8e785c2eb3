// trace_sim.h — the modeled measurement setup of Figure 4.
//
// "Chip under study → oscilloscope → power consumption traces": we have
// two chips under study.
//
//   * The *algorithmic* backend leaks one sample per ladder iteration
//     (Hamming weight of the four working registers, register-transfer
//     granularity). It is fast enough to generate the paper's 20 000-trace
//     DPA experiments in seconds and is what the DPA benches use.
//
//   * The *cycle-accurate* backend runs the hw::Coprocessor and leaks one
//     sample per clock cycle, including the mux-control and clock-gating
//     components of §6. It is what the SPA / circuit-ablation experiments
//     use, and the tests cross-check that both backends expose the same
//     algorithm-level leakage.
//
// The victim's secret scalar is fixed across a trace set; the base point
// varies per trace and is known to the adversary (known-input DPA, the
// standard setting for ECPM attacks).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "ecc/curve.h"
#include "ecc/ladder.h"
#include "hw/coprocessor.h"
#include "sidechannel/countermeasures.h"
#include "sidechannel/leakage.h"
#include "sidechannel/trace.h"

namespace medsec::sidechannel {

/// The three §7 scenarios for the randomized-projective-coordinates
/// countermeasure.
enum class RpcScenario {
  kDisabled,                 ///< "the countermeasure is disabled"
  kEnabledKnownRandomness,   ///< white-box: "the randomness is known"
  kEnabledSecretRandomness,  ///< normal operation
};

const char* rpc_scenario_name(RpcScenario s);

/// Everything one DPA campaign produces: what the oscilloscope captured
/// plus what the adversary legitimately knows.
struct DpaExperiment {
  TraceSet traces;                        ///< one trace per execution
  std::vector<ecc::Point> base_points;    ///< known inputs P_j
  /// Per-trace Z-randomizers; filled only in the white-box scenario.
  std::vector<std::pair<ecc::Fe, ecc::Fe>> known_randomizers;
  /// Ground truth (padded scalar bits, MSB first, leading 1) — used only
  /// to *score* attacks, never by the attack itself.
  std::vector<int> true_bits;
  RpcScenario scenario = RpcScenario::kDisabled;
};

struct AlgorithmicSimConfig {
  LeakageParams leakage;
  std::uint64_t seed = 1;  ///< drives base points, randomizers and noise
  /// TVLA-style fixed-input campaigns: use this base point for every
  /// trace instead of drawing a fresh random point per trace.
  std::optional<ecc::Point> fixed_base_point;
  /// Campaign-engine fan-out. `threads`: 0 = every hardware thread (the
  /// shared core::ThreadPool), 1 = run entirely on the calling thread,
  /// k >= 2 = exactly k runners. `lanes`: ladder lanes per trace block;
  /// 0 = auto (a small multiple — currently 4x — of the active lane
  /// backend's preferred width). Campaign output is bit-identical for
  /// every (threads, lanes) combination: trace j's randomness is derived
  /// from (seed, j) alone — counter-based seeding, not a shared stream.
  std::size_t threads = 0;
  std::size_t lanes = 0;
  /// Ladder countermeasures for the victim executions. When unset, the
  /// RpcScenario decides (kDisabled -> none, kEnabled* -> rpc_only) —
  /// the exact pre-countermeasure-subsystem behavior, bit for bit. When
  /// set, this config is authoritative for what the victim *runs*; the
  /// scenario still decides what the adversary *knows* (the white-box
  /// scenario records the Z-randomizer pairs — identity pairs when RPC
  /// is off — so the attack stays runnable against any config).
  std::optional<CountermeasureConfig> countermeasures;
  /// Draw a fresh victim scalar per trace (from the trace RNG, before
  /// every other per-trace draw) instead of the campaign-wide k — the
  /// "random group" of a fixed-vs-random TVLA campaign.
  bool randomize_scalar = false;
};

// (The per-execution trace length under a countermeasure config is
// sidechannel::hardened_trace_length in countermeasures.h.)

/// Generate `num_traces` ladder executions of secret k on random base
/// points of the curve's prime-order subgroup. This is the wide-lane
/// campaign engine: base points come from per-trace counter-seeded
/// decompression (one inversion-cheap square-root solve instead of a full
/// ladder per point), victim ladders run `lanes` at a time through
/// ladder_many with per-lane leakage taps, trace blocks fan out across
/// the thread pool, and all TraceSet storage is allocated up front.
DpaExperiment generate_dpa_traces(const ecc::Curve& curve,
                                  const ecc::Scalar& k,
                                  std::size_t num_traces,
                                  RpcScenario scenario,
                                  const AlgorithmicSimConfig& config = {});

/// The PR 2 serial path, kept verbatim as the campaign bench's baseline
/// and as a structural reference: one shared RNG stream, ladder-generated
/// base points, one scalar montgomery_ladder (with affine recovery and a
/// per-iteration observer callback) per trace. Statistically equivalent
/// to the engine but not bit-identical (different seeding discipline).
/// Scenario-only: the countermeasures / randomize_scalar extensions are
/// engine features and are ignored here.
DpaExperiment generate_dpa_traces_serial(const ecc::Curve& curve,
                                         const ecc::Scalar& k,
                                         std::size_t num_traces,
                                         RpcScenario scenario,
                                         const AlgorithmicSimConfig& config =
                                             {});

/// One cycle-accurate trace of a co-processor point multiplication,
/// together with the ground-truth records (for scoring and profiling).
struct CycleTrace {
  Trace samples;                          ///< one per clock cycle
  std::vector<hw::CycleRecord> records;   ///< aligned with samples
  std::vector<int> true_bits;
  double area_ge = 0;
};

struct CycleSimConfig {
  hw::CoprocessorConfig coproc;
  LeakageParams leakage;
  std::uint64_t seed = 1;
  /// Ladder countermeasures for the cycle-accurate victim (default: the
  /// shipped chip's RPC). Scalar blinding runs the widened neutral-init
  /// microcode; shuffled schedules insert the co-processor's dummy jitter
  /// units at RNG-chosen boundaries.
  CountermeasureConfig countermeasures = CountermeasureConfig::rpc_only();
  /// Materialize the per-cycle ground-truth records in the returned
  /// CycleTrace. Sampling is sink-fused either way; records only matter
  /// to record consumers (profile_schedule, E9's record-keyed variance
  /// scan), and skipping them saves the capture's dominant allocation.
  bool keep_records = true;
  /// Pool fan-out for capture_averaged_cycle_trace: 0 = the shared
  /// core::ThreadPool, 1 = run entirely on the calling thread, k >= 2 =
  /// exactly k runners. The averaged trace is bit-identical at any value
  /// (capture-order fold, counter-derived per-capture seeds).
  std::size_t threads = 0;
};

/// One planned cycle-accurate victim execution: the co-processor inputs
/// (from the shared SecureEccProcessor planner — one draw-order
/// discipline for every cycle-accurate victim), the scoring ground
/// truth, and the derived noise seed. Shared by every sink composition:
/// the trace capture, the record capture, and the SPA feature extractor.
struct CycleVictimPlan {
  HardenedCoprocPlan plan;
  std::vector<int> true_bits;
  std::uint64_t noise_seed = 0;
};

/// Build the victim plan for one capture under `config` (validates the
/// base point; draws masks/blinds/randomizers/jitter from the capture's
/// counter-derived RNG in THE fixed order).
CycleVictimPlan plan_cycle_victim(const ecc::Curve& curve,
                                  const ecc::Scalar& k, const ecc::Point& p,
                                  const CycleSimConfig& config);

/// Capture j of an averaged sweep runs at this derived seed — ONE
/// derivation shared by the trace and SPA-feature averages (their
/// cross-equality is pinned by test).
inline std::uint64_t averaged_capture_seed(std::uint64_t base,
                                           std::size_t j) {
  return base + 0x1000 * static_cast<std::uint64_t>(j);
}

/// Run `run_block(b, e)` over the capture indices [0, n) under the
/// averaged-capture threads knob (0 = the shared core::ThreadPool, 1 =
/// the calling thread only, k >= 2 = exactly k runners), blocks of a few
/// captures per chunk so each task amortizes its co-processor. Chunk
/// geometry never affects output — every capture derives its own seed
/// and the callers fold in capture order.
void dispatch_capture_blocks(
    std::size_t n, std::size_t threads,
    const std::function<void(std::size_t, std::size_t)>& run_block);

/// Run the co-processor once on (k, P) and measure every cycle. The
/// leakage-sampler sink folds leakage::cycle_sample into the execution
/// pass: samples fill in as cycles execute (storage reserved up front
/// from the compiled schedule's cycle total), and records are kept only
/// when config.keep_records asks for them.
CycleTrace capture_cycle_trace(const ecc::Curve& curve, const ecc::Scalar& k,
                               const ecc::Point& p,
                               const CycleSimConfig& config);

/// The two-pass capture, kept as bench_coproc's baseline and as a
/// conformance reference: materialize the full record vector through a
/// hw::RecordSink (reserved from the compiled cycle total), then fold it
/// into samples in a second pass with the frozen Box–Muller noise
/// sampler. Record stream identical to capture_cycle_trace's (asserted by
/// test); samples differ only in the noise sequence (Box–Muller vs the
/// ziggurat).
CycleTrace capture_cycle_trace_reference(const ecc::Curve& curve,
                                         const ecc::Scalar& k,
                                         const ecc::Point& p,
                                         const CycleSimConfig& config);

/// Average several captures of the same (k, P): the attacker's standard
/// noise-reduction step before SPA. Captures are independent (seed + j
/// derived) and fan out across the pool per config.threads with
/// block-local reusable co-processors; the average is folded in capture
/// order, so the result is bit-identical to a serial run at any thread
/// count. The returned records are capture 0's (per config.keep_records).
CycleTrace capture_averaged_cycle_trace(const ecc::Curve& curve,
                                        const ecc::Scalar& k,
                                        const ecc::Point& p,
                                        const CycleSimConfig& config,
                                        std::size_t num_captures);

}  // namespace medsec::sidechannel
