// eval.h — the attack × countermeasure × lane-backend evaluation matrix.
//
// The paper's §7 evaluation is one row of a much larger table: one attack
// (DPA), one countermeasure (RPC), one implementation. This engine runs
// the whole grid — every attack in the repo's arsenal against every
// countermeasure configuration, on the active wide-lane backend — and
// renders a verdict per cell: did the key fall, at what trace
// budget, and does any trace point still leak (TVLA)? Like HARP's
// write-and-verify loop, a countermeasure only counts once the
// measurement that motivated it has been re-run against it.
//
// Campaign generation and attack analysis ride the PR 3 campaign engine
// (wide lanes + thread pool + streaming statistics), so a full matrix is
// minutes, not hours. Results serialize to the BENCH_eval_matrix.json
// verdict table consumed by CI and the README's reading guide.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ecc/curve.h"
#include "sidechannel/countermeasures.h"

namespace medsec::sidechannel {

enum class EvalAttack {
  kCpaKnownInput,  ///< standard known-input CPA (ladder_dpa_attack)
  kCpaWhiteBox,    ///< §7 white-box: Z-randomizers known to the attacker
  kDom,            ///< Kocher difference-of-means variant
  kTvla,           ///< fixed-vs-random Welch t leakage assessment
  /// The §6 SPA vectors (mux-control + clock-gating) against the
  /// cycle-accurate co-processor victim on a worst-case circuit (naive
  /// mux encoding, data-dependent gating): profile the schedule on the
  /// attacker's own device, average the victim through the SPA
  /// feature-extractor sink, classify. Evaluates whether the row's
  /// *ladder-level* defense alone defeats a leaky circuit — shuffle does
  /// (positions smear), blinding decorrelates the read bits from k, rpc
  /// and base blinding do not touch the select-line schedule.
  kSpa,
  /// Safe-error fault attack (fault_attacks.h): one select glitch per
  /// ladder slot, read the correct-vs-garbage release oracle. Evaluates
  /// the fault-countermeasure columns — the coherence check catches even
  /// computationally-absorbed glitches, infective computation destroys
  /// the oracle itself.
  kFaultSafeError,
  /// Invalid-point fault injection (fault_attacks.h): stuck-at on the
  /// base register forces an off-curve ladder; point validation and the
  /// ladder-invariant canary must catch it before release.
  kFaultInvalidPoint,
};

const char* eval_attack_name(EvalAttack a);

struct EvalConfig {
  /// Grid rows: the countermeasure configurations to evaluate.
  std::vector<CountermeasureConfig> countermeasures;
  /// Grid columns: the attacks to run against each row.
  std::vector<EvalAttack> attacks;
  std::size_t traces = 400;          ///< campaign budget per attack cell
  std::size_t bits_to_attack = 12;   ///< leading key bits per recovery
  /// Trace-count sweep for the traces-to-break column (key-recovery
  /// attacks only); empty = skip the sweep.
  std::vector<std::size_t> break_sweep;
  std::size_t tvla_traces_per_group = 120;
  /// Averaged victim captures per SPA cell (the attacker's standard
  /// noise-reduction step; pooled via `threads`).
  std::size_t spa_captures = 8;
  std::uint64_t seed = 1;            ///< campaign seed (deterministic)
  std::size_t threads = 0;           ///< 0 = every hardware thread

  /// The bench's standard grid: none / rpc / blind / base / shuffle /
  /// full plus the fault-hardened rows (validate-only, validated,
  /// infective) against all seven attacks.
  static EvalConfig standard();

  /// Fail loudly on an unknown or incoherent grid before any campaign
  /// runs: empty axes, out-of-range budgets, and countermeasure rows
  /// that cannot mean anything (infective computation with no detector,
  /// zero-width or over-wide scalar blinds, shuffling with zero dummies).
  /// Throws std::invalid_argument naming the offending field and the
  /// valid set.
  void validate() const;
};

/// One verdict cell of the matrix.
struct EvalCell {
  std::string attack;
  std::string countermeasure;
  std::string lane_backend;  ///< active lane backend the cell ran on
  std::size_t traces = 0;
  // Key-recovery attacks:
  double accuracy = 0.0;           ///< recovered-bit accuracy (0.5 ~ chance)
  bool key_recovered = false;      ///< all attacked bits correct
  std::size_t traces_to_break = 0; ///< smallest sweep count that broke; 0 = held
  // TVLA:
  double tvla_max_t = 0.0;
  bool tvla_leaks = false;         ///< any |t| > 4.5
  // Fault attacks: shots whose release actually leaked (0 = the oracle
  // was dead and the attacker guessed coins — the defended shape).
  std::size_t informative_shots = 0;
  double seconds = 0.0;            ///< wall time of this cell
  /// The verdict: true when the defense held against this attack
  /// (key not recovered / no point over threshold).
  bool defense_holds = false;
};

struct EvalMatrix {
  std::vector<EvalCell> cells;

  /// Verdict table as JSON: {"schema":"medsec-eval-matrix-v1",
  /// "cells":[{...}]}. Hand-rolled, no dependencies.
  std::string to_json() const;
  /// Write to_json() to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;
};

/// Run the grid for victim secret k on the active lane backend, leaving
/// the lane dispatch untouched. Deterministic for a fixed config
/// (counter-seeded campaigns; neither the thread axis nor the lane
/// backend changes values).
EvalMatrix run_eval_matrix(const ecc::Curve& curve, const ecc::Scalar& k,
                           const EvalConfig& config);

}  // namespace medsec::sidechannel
