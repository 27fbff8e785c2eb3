// taint.h — secret-taint interpreter for the constant-time audit.
//
// The dudect engine (dudect.h) detects leakage statistically; this
// engine detects it structurally. `Tainted<T>` wraps a value whose
// provenance includes secret data. Taint propagates through every
// arithmetic/logical operator, and the three operations a constant-time
// discipline forbids on secrets are choke-pointed through audit guards:
//
//   * ct::branch(cond, site)  — branching on a secret-derived condition
//   * ct::index(idx, site)    — using a secret-derived value as a table
//                               index (cache-line address = leakage)
//   * variable-latency ops    — division/modulo and shifts BY a
//                               secret-derived amount record a violation
//                               directly in the operator
//
// An audit run instantiates the templated ladder core (ecc/ladder_core.h)
// with TaintFe (taint_fe.h) — three Tainted<uint64_t> limbs — under a
// TaintContext, then reads back the typed violation report. The shipped
// ladder formulas run unmodified through the same template, so what is
// audited is what ships; the toy negative controls route their leaks
// through the guards above and light up the report.
//
// The report mirrors core::IsaAuditReport: typed findings with a stable
// site string and an occurrence count, summarized by a clean() verdict.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace medsec::ctaudit {

enum class TaintViolationKind {
  kSecretBranch,       ///< control flow depends on secret data
  kSecretTableIndex,   ///< memory address depends on secret data
  kVariableLatencyOp,  ///< div/mod/shift-by-secret on secret data
};

inline const char* taint_violation_name(TaintViolationKind k) {
  switch (k) {
    case TaintViolationKind::kSecretBranch:
      return "secret-branch";
    case TaintViolationKind::kSecretTableIndex:
      return "secret-table-index";
    case TaintViolationKind::kVariableLatencyOp:
      return "variable-latency-op";
  }
  return "?";
}

struct TaintViolation {
  TaintViolationKind kind;
  std::string site;        ///< stable identifier of the offending use
  std::uint64_t count = 0; ///< occurrences at this (kind, site)
};

struct TaintAuditReport {
  std::string target;
  std::uint64_t ops = 0;  ///< tainted field-level operations interpreted
  std::vector<TaintViolation> violations;

  bool clean() const { return violations.empty(); }
  bool has(TaintViolationKind k) const {
    for (const TaintViolation& v : violations)
      if (v.kind == k) return true;
    return false;
  }
};

/// Recording scope for one audited run. RAII: installs itself as the
/// thread's active context; Tainted operators and the ct:: guards report
/// into whichever context is active (none active = no recording, so
/// Tainted values are inert outside an audit).
class TaintContext {
 public:
  explicit TaintContext(std::string target_name);
  ~TaintContext();
  TaintContext(const TaintContext&) = delete;
  TaintContext& operator=(const TaintContext&) = delete;

  void record(TaintViolationKind kind, const char* site);
  void count_op(std::uint64_t n = 1) { ops_ += n; }

  /// Snapshot of the findings so far (violations aggregated by
  /// (kind, site) in first-seen order — deterministic).
  TaintAuditReport report() const;

  static TaintContext* current();

 private:
  std::string target_;
  std::uint64_t ops_ = 0;
  std::vector<TaintViolation> violations_;
  TaintContext* prev_ = nullptr;
};

namespace detail {
inline void taint_record(TaintViolationKind kind, const char* site) {
  if (TaintContext* ctx = TaintContext::current()) ctx->record(kind, site);
}
}  // namespace detail

/// A value carrying secret provenance. Arithmetic and bitwise operators
/// propagate taint silently (those are constant-time on every target the
/// model covers); comparisons yield Tainted<bool> so the result cannot
/// reach an `if` without passing ct::branch; division, modulo and
/// shift-by-tainted-amount record kVariableLatencyOp at use.
template <typename T>
class Tainted {
  static_assert(std::is_arithmetic_v<T>, "Tainted wraps arithmetic types");

 public:
  Tainted() = default;
  /// Public values lift implicitly: mixing a constant into a tainted
  /// expression should not need ceremony.
  constexpr Tainted(T v) : v_(v) {}  // NOLINT(google-explicit-constructor)

  /// Deliberate untaint: the caller asserts this value is safe to treat
  /// as public (e.g. the final ladder output, which the protocol
  /// publishes anyway). Not a violation — it is the audited equivalent
  /// of the secure/insecure zone boundary crossing.
  T declassify() const { return v_; }

  // -- taint-preserving arithmetic (constant-time op classes) --
  friend Tainted operator^(Tainted a, Tainted b) { return {T(a.v_ ^ b.v_)}; }
  friend Tainted operator&(Tainted a, Tainted b) { return {T(a.v_ & b.v_)}; }
  friend Tainted operator|(Tainted a, Tainted b) { return {T(a.v_ | b.v_)}; }
  friend Tainted operator+(Tainted a, Tainted b) { return {T(a.v_ + b.v_)}; }
  friend Tainted operator-(Tainted a, Tainted b) { return {T(a.v_ - b.v_)}; }
  friend Tainted operator*(Tainted a, Tainted b) { return {T(a.v_ * b.v_)}; }
  Tainted operator~() const { return {T(~v_)}; }
  Tainted operator-() const { return {T(-v_)}; }
  Tainted& operator^=(Tainted o) { v_ ^= o.v_; return *this; }
  Tainted& operator&=(Tainted o) { v_ &= o.v_; return *this; }
  Tainted& operator|=(Tainted o) { v_ |= o.v_; return *this; }
  Tainted& operator+=(Tainted o) { v_ += o.v_; return *this; }

  // -- shifts: by a PUBLIC amount they are constant-time (barrel
  // shifter); by a tainted amount the latency can depend on the secret
  // on small cores, so that form records a violation. --
  friend Tainted operator<<(Tainted a, unsigned s) { return {T(a.v_ << s)}; }
  friend Tainted operator>>(Tainted a, unsigned s) { return {T(a.v_ >> s)}; }
  friend Tainted operator<<(Tainted a, Tainted<unsigned> s) {
    detail::taint_record(TaintViolationKind::kVariableLatencyOp,
                         "Tainted::operator<< (tainted amount)");
    return {T(a.v_ << s.declassify())};
  }
  friend Tainted operator>>(Tainted a, Tainted<unsigned> s) {
    detail::taint_record(TaintViolationKind::kVariableLatencyOp,
                         "Tainted::operator>> (tainted amount)");
    return {T(a.v_ >> s.declassify())};
  }

  // -- variable-latency op classes: recorded at use --
  friend Tainted operator/(Tainted a, Tainted b) {
    detail::taint_record(TaintViolationKind::kVariableLatencyOp,
                         "Tainted::operator/");
    return {T(a.v_ / b.v_)};
  }
  friend Tainted operator%(Tainted a, Tainted b) {
    detail::taint_record(TaintViolationKind::kVariableLatencyOp,
                         "Tainted::operator%");
    return {T(a.v_ % b.v_)};
  }

  // -- comparisons return tainted booleans: branching on them must go
  // through ct::branch, which records the violation. --
  friend Tainted<bool> operator==(Tainted a, Tainted b) {
    return Tainted<bool>(a.v_ == b.v_);
  }
  friend Tainted<bool> operator!=(Tainted a, Tainted b) {
    return Tainted<bool>(a.v_ != b.v_);
  }
  friend Tainted<bool> operator<(Tainted a, Tainted b) {
    return Tainted<bool>(a.v_ < b.v_);
  }

 private:
  T v_{};
};

// ct:: guards — the only sanctioned exits from the tainted domain. Both
// have pass-through overloads for plain values so audited code can be
// templated over the field type and compile unchanged for the production
// build (where conditions are plain bools and never recorded).
namespace ct {

/// Branch on a tainted condition: records kSecretBranch and returns the
/// raw bool so execution can proceed (the audit observes, it does not
/// halt — one run collects every violation).
template <typename T>
inline bool branch(Tainted<T> cond, const char* site) {
  detail::taint_record(TaintViolationKind::kSecretBranch, site);
  return static_cast<bool>(cond.declassify());
}
inline bool branch(bool cond, const char* /*site*/) { return cond; }

/// Index a table with a tainted value: records kSecretTableIndex and
/// returns the raw index.
template <typename T>
inline std::size_t index(Tainted<T> idx, const char* site) {
  detail::taint_record(TaintViolationKind::kSecretTableIndex, site);
  return static_cast<std::size_t>(idx.declassify());
}
inline std::size_t index(std::size_t idx, const char* /*site*/) {
  return idx;
}

}  // namespace ct

}  // namespace medsec::ctaudit
