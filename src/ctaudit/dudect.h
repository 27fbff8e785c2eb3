// dudect.h — dudect-style statistical constant-time tester (Reparaz,
// Balasch & Verbauwhede, "dude, is my code constant time?").
//
// The §5 security argument claims every secret-dependent operation
// executes in data-independent time. This engine mechanizes that claim
// the dudect way: drive the target with two secret classes — a FIXED
// secret (all-zero bytes, the classic choice) and a fresh RANDOM secret
// per measurement — measure each execution through a TimeSource, and
// Welch-t-test the two timing distributions. Any |t| above the TVLA
// threshold means execution time depends on the secret.
//
// Differences from stock dudect, all in the direction of reproducible
// CI verdicts:
//   * Inputs are counter-derived (splitmix64 over seed × sample × lane,
//     the hw::FaultInjector idiom): sample i's class, secret bytes and
//     auxiliary randomness are pure functions of (seed, i), so a verdict
//     is bit-identical for any replay of the same seed.
//   * The accumulators are the PR 3 streaming kind
//     (sidechannel::RunningStats — Welford moments, mergeable in fixed
//     block order) and the t statistic is the shared
//     sidechannel::welch_t used by the TVLA engine, so there is exactly
//     one t-test implementation in the repo.
//   * Percentile cropping (dudect's answer to measurement tails) fixes
//     its thresholds from a seeded calibration prefix, then never
//     adapts again — adaptive thresholds would make verdicts depend on
//     scheduling noise.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ctaudit/time_source.h"
#include "rng/xoshiro.h"
#include "sidechannel/trace.h"

namespace medsec::ctaudit {

/// The n-th derivation word of a seeded campaign on an independent lane:
/// any subset of samples can be regenerated exactly.
using rng::derive_word;

/// Two-class Welch accumulator: one RunningStats per secret class,
/// mergeable in block order like every PR 3 streaming accumulator.
class WelchAccumulator {
 public:
  void add(int cls, double x) { group_[cls & 1].add(x); }
  void merge(const WelchAccumulator& o) {
    group_[0].merge(o.group_[0]);
    group_[1].merge(o.group_[1]);
  }
  const sidechannel::RunningStats& group(int cls) const {
    return group_[cls & 1];
  }
  /// Welch's t between the two classes (0 if either is degenerate).
  double t() const { return sidechannel::welch_t(group_[0], group_[1]); }

 private:
  sidechannel::RunningStats group_[2];
};

/// One measurable entry point — a field/lane kernel workload, a modeled
/// ladder, or a deliberately leaky negative control. The adapter owns
/// everything target-specific: how secret bytes become operands, and
/// what one measured execution is.
struct CtTarget {
  std::string name;
  /// Grid coordinates for the backend × lane matrix ("-" when the
  /// target is not a kernel combo).
  std::string backend = "-";
  std::string lanes = "-";
  /// False when the combo needs an ISA this CPU lacks: the row is
  /// reported as skipped, never failed (the CI lane-matrix discipline).
  bool available = true;
  /// Modeled targets (co-processor cycle counts) are orders of magnitude
  /// slower per measurement than kernel targets; the grid runner sizes
  /// their sample count separately.
  bool modeled = false;
  /// Negative control: a planted leak the test must FAIL (the grid
  /// reports a pass here as a blind harness).
  bool expect_leak = false;
  std::size_t secret_bytes = 21;  ///< 163 bits and then some
  /// One measured execution: consume `secret`, optionally draw public
  /// per-execution randomness from `aux_seed` (identically distributed
  /// in both classes — blinds, randomizers), and report instrumented
  /// work through ts.tick(). The engine brackets the call with
  /// ts.start()/ts.stop().
  std::function<void(const std::uint8_t* secret, std::size_t secret_len,
                     std::uint64_t aux_seed, TimeSource& ts)>
      run;
};

struct CtTestConfig {
  std::size_t samples = 4000;      ///< measurements fed to the accumulators
  std::size_t calibration = 128;   ///< pilot measurements fixing the crops
  std::size_t crops = 8;           ///< cropped accumulators (plus uncropped)
  std::uint64_t seed = 0x0C7A0D17ULL;
  double threshold = 4.5;          ///< TVLA convention
  /// An accumulator votes only when both classes hold at least this many
  /// measurements (high crops can starve).
  std::size_t min_group = 8;
};

struct CtTestReport {
  std::string target;
  std::string backend = "-";
  std::string lanes = "-";
  std::string source;              ///< TimeSource name
  std::size_t samples = 0;         ///< main-phase measurements taken
  std::size_t n_fixed = 0;         ///< uncropped fixed-class count
  std::size_t n_random = 0;        ///< uncropped random-class count
  double max_abs_t = 0.0;          ///< worst accumulator's |t|
  int worst_accumulator = -1;      ///< 0 = uncropped, k = crop k; -1 none voted
  double threshold = 4.5;
  bool pass = true;                ///< max_abs_t < threshold
  bool skipped = false;            ///< ISA-gated combo unavailable here
};

/// Run the fixed-vs-random test against one target. Deterministic for
/// deterministic time sources: the input schedule is counter-derived and
/// the accumulation order is fixed.
CtTestReport run_ct_test(const CtTarget& target, TimeSource& ts,
                         const CtTestConfig& config = {});

}  // namespace medsec::ctaudit
