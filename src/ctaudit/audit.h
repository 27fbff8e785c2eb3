// audit.h — the constant-time audit grid: every field backend × lane
// backend combination plus the modeled ladder entry points, pushed
// through both audit engines (the dudect-style statistical tester and
// the secret-taint interpreter), with the verdicts collected into one
// reproducible report (BENCH_ct_audit.json) that the CI perf gate
// checks exactly.
//
// The grid also carries its own negative controls: two deliberately
// leaky toy ladders (a secret-dependent branch, a secret-indexed table)
// that MUST be flagged by both engines, and the double-and-add
// scalar_mult_ld on a secret key, which the dudect engine must flag. A
// run where a control passes is a broken harness, not a clean codebase —
// the acceptance checks treat that as failure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ctaudit/dudect.h"
#include "ctaudit/taint.h"
#include "ecc/ladder.h"

namespace medsec::ctaudit {

/// Every registered audit target: the 2 × 2 scalar-backend × lane-backend
/// kernel grid, the ISA-gated mega-lane rows, the modeled co-processor
/// ladders (unblinded classic and scalar-blinded fixed-length), the
/// server's secret-key entry (`ladder-x`: ecc::ladder_x's template) with
/// the variable-time `scalar-mult-ld` it replaced as a planted leak, and
/// the two leaky toys. Rows for combos this CPU cannot run are returned
/// with available == false (reported as skipped, never failed).
std::vector<CtTarget> ct_audit_targets();

/// The leaky toys, exposed individually for tests: a ladder with a
/// secret-dependent branch (one extra multiply per set key bit) and one
/// with a secret-indexed table (variable tick per window value). Both
/// must FAIL the dudect test and light up the taint report.
CtTarget make_toy_branch_target();
CtTarget make_toy_table_target();

// --- secret-taint audits -----------------------------------------------------

/// Result of interpreting a full ladder over TaintFe: the typed
/// violation report plus the declassified final state, so tests can
/// cross-check the audited arithmetic bit-for-bit against the production
/// ladder (same formulas in, same numbers out).
struct TaintLadderResult {
  TaintAuditReport report;
  ecc::LadderState state;
};

/// Classic constant-length ladder (montgomery_ladder_raw's schedule)
/// interpreted over TaintFe with tainted key bits.
TaintLadderResult taint_audit_ladder_classic(const ecc::Curve& curve,
                                             const ecc::Scalar& k,
                                             const ecc::Point& p);

/// Fixed-length blinded ladder (montgomery_ladder_fixed_raw's schedule,
/// neutral start, `iterations` bits of the wide scalar) over TaintFe.
TaintLadderResult taint_audit_ladder_blinded(const ecc::Curve& curve,
                                             const ecc::WideScalar& k,
                                             std::size_t iterations,
                                             const ecc::Point& p);

/// Straight-line field-arithmetic workload (mul / sqr / fused forms /
/// cswap chains on secret operands) over TaintFe — the kernel-level
/// discipline check.
TaintAuditReport taint_audit_fe_arithmetic(std::uint64_t seed);

/// The negative controls under the taint interpreter: must report
/// kSecretBranch / kSecretTableIndex respectively.
TaintAuditReport taint_audit_toy_branch(std::uint64_t seed);
TaintAuditReport taint_audit_toy_table(std::uint64_t seed);

// --- the grid ----------------------------------------------------------------

struct GridConfig {
  /// Main-phase measurements per kernel target (fast: hundreds; nightly:
  /// full dudect counts).
  std::size_t samples = 4000;
  /// Measurements per *modeled* target (each is a full co-processor
  /// point multiplication — milliseconds, not microseconds).
  std::size_t model_samples = 192;
  std::size_t calibration = 128;
  std::uint64_t seed = 0x0C7A0D17ULL;
  double threshold = 4.5;
  TimeSourceKind source = TimeSourceKind::kOpCount;
  /// Run the grid twice and require bit-identical verdicts (only
  /// meaningful for deterministic sources; skipped otherwise).
  bool rerun_check = true;
  /// Substring filter on target names; empty = everything.
  std::string target_filter;
};

struct TaintGridRow {
  TaintAuditReport report;
  bool expected_clean = true;  ///< negative controls expect violations
};

struct DudectGridRow {
  CtTestReport report;
  bool expected_pass = true;  ///< negative controls expect failure
};

struct CtAuditGrid {
  std::vector<DudectGridRow> dudect;
  std::vector<TaintGridRow> taint;
  /// SHA-256 over the canonical row serialization — the rerun-identity
  /// and artifact-comparison fingerprint.
  std::string digest_hex;
  /// True when the rerun check ran and both passes produced the same
  /// digest; also true (vacuously) when the check was skipped.
  bool rerun_identical = true;
  bool rerun_checked = false;
  /// Human-readable acceptance failures; empty = the grid satisfies the
  /// audit contract (shipped targets clean, toys flagged, required rows
  /// present and unskipped, deterministic rerun identical).
  std::vector<std::string> acceptance_failures;
  bool acceptance_ok() const { return acceptance_failures.empty(); }
};

/// Run both engines over the full target grid. Serial by design: kernel
/// targets switch the global scalar backend per row and restore it
/// before returning; the lane dispatch (auto or pinned) is left as it
/// was.
CtAuditGrid run_ct_audit_grid(const GridConfig& config = {});

/// Serialize the grid verdicts to the BENCH_ct_audit.json schema
/// ("medsec-ct-audit-v1"), consumed by bench/check_perf_regression.py.
/// Returns false if the file cannot be written.
bool write_ct_audit_json(const CtAuditGrid& grid, const GridConfig& config,
                         const std::string& path);

}  // namespace medsec::ctaudit
