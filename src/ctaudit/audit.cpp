#include "ctaudit/audit.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "ctaudit/taint_fe.h"
#include "ecc/curve.h"
#include "ecc/ladder_arith.h"
#include "ecc/ladder_core.h"
#include "ecc/point_arith.h"
#include "gf2m/backend.h"
#include "gf2m/field_ops.h"
#include "gf2m/gf163_lanes.h"
#include "hash/sha256.h"
#include "hw/coprocessor.h"
#include "sidechannel/countermeasures.h"

namespace medsec::ctaudit {

namespace {

using ecc::Curve;
using ecc::Scalar;
using ecc::WideScalar;
using gf2m::Gf163;
using gf2m::Gf163xN;

constexpr unsigned kBlindBits = 32;
/// Kernel-workload iterations per measurement (each iteration is one
/// fused mul_add_mul + one sqr + one cswap over the whole lane block).
constexpr std::size_t kKernelIters = 4;

/// Compiler-opaque sink for kernel results (the dispatch already goes
/// through function pointers, but keep the data flow visibly live).
volatile std::uint64_t g_sink = 0;

/// Map secret bytes to a nonzero scalar: k = (secret mod (n-1)) + 1.
/// Injective enough for the fixed-vs-random classes and never 0 mod n —
/// the all-zero fixed secret must not hit the result-at-infinity early
/// exit, whose modeled execution is genuinely (and legitimately) shorter.
Scalar scalar_from_secret(const Curve& curve, const std::uint8_t* secret,
                          std::size_t len) {
  Scalar s;
  for (std::size_t i = 0; i < len && i < 24; ++i) {
    const std::uint64_t byte = secret[i];
    s.set_limb(i / 8, s.limb(i / 8) | (byte << (8 * (i % 8))));
  }
  Scalar n_minus_1 = curve.order();
  n_minus_1.sub_in_place(Scalar{1});
  Scalar k = s.mod(n_minus_1) + Scalar{1};
  return k;
}

/// MSB-first padded key bits (constant_length_scalar discipline — the
/// classic ladder's fixed iteration count).
std::vector<int> padded_bits(const Curve& curve, const Scalar& k) {
  const Scalar padded = ecc::constant_length_scalar(curve, k);
  std::vector<int> bits;
  bits.reserve(padded.bit_length());
  for (std::size_t i = padded.bit_length(); i-- > 0;)
    bits.push_back(padded.bit(i) ? 1 : 0);
  return bits;
}

/// Small keyed PRF over the secret bytes for deriving kernel operands:
/// FNV-1a fold of the secret, then a splitmix64 stream. Pure function of
/// (secret, stream index) — same secret, same operands, every time.
std::uint64_t secret_fold(const std::uint8_t* secret, std::size_t len) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= secret[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

Gf163 fe_from_stream(std::uint64_t& state) {
  const std::uint64_t l0 = rng::splitmix64(state);
  const std::uint64_t l1 = rng::splitmix64(state);
  const std::uint64_t l2 = rng::splitmix64(state) & gf2m::kTopLimbMask;
  return Gf163{l0, l1, l2};
}

// --- kernel (backend × lane) targets ----------------------------------------

struct LaneCombo {
  gf2m::Backend backend;
  gf2m::LaneBackend lanes;
};

/// One measured kernel execution: switch to the combo's scalar backend,
/// derive a lane block of operands from the secret, run kKernelIters of
/// the fused ladder-step kernels, tick once per kernel call. The lane
/// kernels are called through their own vtable rather than by pinning
/// the lane registry, so the caller's lane dispatch (auto or pinned) is
/// never touched. Under the op-count source this measures the *modeled*
/// cost (one unit per kernel — the kernels have no data-dependent
/// dispatch by construction); under a wall-clock source it measures the
/// real thing, advisory. Only called for available combos.
void run_lane_kernels(const LaneCombo& combo, const std::uint8_t* secret,
                      std::size_t len, TimeSource& ts) {
  gf2m::set_backend(combo.backend);

  const gf2m::LaneVTable* vt = gf2m::lane_vtable(combo.lanes);
  const std::size_t n = std::min<std::size_t>(vt->preferred_width, 64);

  Gf163xN a(n), b(n), c(n), d(n), out(n);
  std::uint64_t state = secret_fold(secret, len);
  for (std::size_t i = 0; i < n; ++i) {
    a.set(i, fe_from_stream(state));
    b.set(i, fe_from_stream(state));
    c.set(i, fe_from_stream(state));
    d.set(i, fe_from_stream(state));
  }
  std::vector<std::uint8_t> choice(n);
  for (std::size_t i = 0; i < n; ++i) choice[i] = secret[i % len] & 1;

  for (std::size_t it = 0; it < kKernelIters; ++it) {
    vt->mul_add_mul(a.view(), b.view(), c.view(), d.view(), out.span(), n);
    ts.tick(1);
    vt->sqr_add_mul(out.view(), a.view(), b.view(), d.span(), n);
    ts.tick(1);
    vt->sqr(out.view(), a.span(), n);
    ts.tick(1);
    Gf163xN::cswap(choice.data(), a, c);
    ts.tick(1);
  }
  const Gf163 r = out.get(0) + a.get(n - 1);
  g_sink ^= r.limb(0) ^ r.limb(1) ^ r.limb(2);
}

CtTarget make_lane_target(gf2m::Backend be, gf2m::LaneBackend lb) {
  CtTarget t;
  t.name = "lane-ladder-step";
  t.backend = gf2m::backend_name(be);
  t.lanes = gf2m::lane_backend_name(lb);
  t.available =
      gf2m::backend_available(be) && gf2m::lane_backend_available(lb);
  t.modeled = false;
  const LaneCombo combo{be, lb};
  t.run = [combo](const std::uint8_t* secret, std::size_t len,
                  std::uint64_t /*aux*/, TimeSource& ts) {
    run_lane_kernels(combo, secret, len, ts);
  };
  return t;
}

// --- modeled co-processor ladder targets ------------------------------------

CtTarget make_ladder_unblinded_target() {
  CtTarget t;
  t.name = "ladder-unblinded";
  t.modeled = true;
  // One model instance per target, shared across measurements; the grid
  // is serial and point_mult fully resets per call. No sink: the cycle
  // *count* is the measurement, the per-cycle records are dead weight.
  auto coproc = std::make_shared<hw::Coprocessor>();
  t.run = [coproc](const std::uint8_t* secret, std::size_t len,
                   std::uint64_t /*aux*/, TimeSource& ts) {
    const Curve& curve = Curve::b163();
    const Scalar k = scalar_from_secret(curve, secret, len);
    const auto r = coproc->point_mult(padded_bits(curve, k),
                                      curve.base_point().x, {}, nullptr);
    ts.tick(r.exec.cycles);
  };
  return t;
}

CtTarget make_ladder_blinded_target() {
  CtTarget t;
  t.name = "ladder-blinded";
  t.modeled = true;
  auto coproc = std::make_shared<hw::Coprocessor>();
  t.run = [coproc](const std::uint8_t* secret, std::size_t len,
                   std::uint64_t aux, TimeSource& ts) {
    const Curve& curve = Curve::b163();
    const Scalar k = scalar_from_secret(curve, secret, len);
    // The blind is *public* per-execution randomness: drawn from the aux
    // stream, identically distributed in both secret classes.
    const std::uint64_t r = aux & ((1ULL << kBlindBits) - 1);
    const WideScalar kp = sidechannel::blind_scalar(curve, k, r);
    const std::size_t iters =
        sidechannel::blinded_ladder_iterations(curve, kBlindBits);
    std::vector<int> bits;
    bits.reserve(iters);
    for (std::size_t i = iters; i-- > 0;) bits.push_back(kp.bit(i) ? 1 : 0);
    hw::PointMultOptions opt;
    opt.neutral_init = true;
    const auto res =
        coproc->point_mult(bits, curve.base_point().x, opt, nullptr);
    ts.tick(res.exec.cycles);
  };
  return t;
}

// --- secret-key scalar multiplications on the op-count source ---------------
//
// The production formula templates instantiated over a counting field
// policy: the portable kernels behind wrappers that count every
// multiplication and squaring. The op count of one scalar multiplication
// is then its exact field-operation schedule — key-independent for the
// ladder, one double (plus one add per set bit) per key bit for
// double-and-add. Instantiated only here, so the carry-less-multiply
// confinement of the library objects is untouched.

/// Field kernel calls since the last reset (the grid runs serially).
std::uint64_t g_field_ops = 0;

void counting_mul326(const std::uint64_t a[3], const std::uint64_t b[3],
                     std::uint64_t p[6]) {
  ++g_field_ops;
  gf2m::mul326_karatsuba(a, b, p);
}

void counting_sqr326(const std::uint64_t a[3], std::uint64_t p[6]) {
  ++g_field_ops;
  gf2m::sqr326_portable(a, p);
}

using CountingOps = gf2m::FieldOps<&counting_mul326, &counting_sqr326>;

/// A target that multiplies the K-163 generator by the secret key through
/// `mult` (over CountingOps) and ticks the field operations it ran.
template <class Mult>
CtTarget make_key_mult_target(std::string name, bool expect_leak,
                              Mult mult) {
  CtTarget t;
  t.name = std::move(name);
  t.expect_leak = expect_leak;
  t.run = [mult](const std::uint8_t* secret, std::size_t len,
                 std::uint64_t /*aux*/, TimeSource& ts) {
    const Curve& curve = Curve::k163();
    const Scalar k = scalar_from_secret(curve, secret, len);
    g_field_ops = 0;
    g_sink = g_sink ^ mult(curve, k, curve.base_point());
    ts.tick(g_field_ops);
  };
  return t;
}

/// ecc::ladder_x's template: the PH reader's and ECIES receiver's
/// multiplication by their long-term key.
CtTarget make_ladder_x_target() {
  return make_key_mult_target(
      "ladder-x", false,
      [](const Curve& c, const Scalar& k, const ecc::Point& p) {
        const auto x = ecc::LadderArith<CountingOps>::x_only(c, k, p);
        return x ? x->limb(0) : 0;
      });
}

/// The double-and-add those two call sites used before: its fixed class
/// (k = 1) runs one iteration, a random key about 244 point operations.
CtTarget make_scalar_mult_ld_target() {
  return make_key_mult_target(
      "scalar-mult-ld", true,
      [](const Curve& c, const Scalar& k, const ecc::Point& p) {
        return ecc::PointArith<CountingOps>::scalar_mult_ld(c, k, p)
            .x.limb(0);
      });
}

// --- leaky toys (negative controls) -----------------------------------------
//
// Templated over (FE, Bit) so the SAME toy runs under the dudect engine
// (FE = Gf163, Bit = uint64_t: the leak shows up as data-dependent
// ticks) and under the taint interpreter (FE = TaintFe,
// Bit = Tainted<uint64_t>: the leak shows up as a recorded violation
// through the ct:: guards). Tick is a no-op in the taint build.

template <class FE, class Bit, class Tick>
void toy_branch_core(const FE& x, const Bit* bits, std::size_t nbits,
                     Tick&& tick) {
  FE acc = x;
  for (std::size_t i = 0; i < nbits; ++i) {
    // THE classic SPA bug: square-and-multiply with the multiply guarded
    // by the key bit.
    if (ct::branch(bits[i] != Bit(0), "toy-branch:key-bit")) {
      acc = FE::mul(acc, x);
      tick(1);
    }
    acc = FE::sqr(acc);
    tick(1);
  }
}

template <class FE, class Bit, class Tick>
void toy_table_core(const FE& x, const Bit* bits, Tick&& tick) {
  // THE classic cache-timing bug: a window of key bits selects the
  // precomputed multiple to use.
  FE table[4] = {x, FE::sqr(x), FE::mul(x, FE::sqr(x)),
                 FE::sqr(FE::sqr(x))};
  const Bit window = (bits[0] & Bit(1)) | ((bits[1] & Bit(1)) << 1u);
  const std::size_t idx = ct::index(window, "toy-table:window");
  const FE acc = FE::mul(x, table[idx]);
  tick(1 + idx);
  (void)acc;
}

std::uint64_t toy_bits_from_secret(const std::uint8_t* secret,
                                   std::size_t len, std::uint64_t out[8]) {
  std::uint64_t fold = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = (i < len ? secret[i] : 0) & 1;
    fold = (fold << 1) | out[i];
  }
  return fold;
}

}  // namespace

CtTarget make_toy_branch_target() {
  CtTarget t;
  t.name = "toy-branch";
  t.expect_leak = true;
  t.run = [](const std::uint8_t* secret, std::size_t len,
             std::uint64_t /*aux*/, TimeSource& ts) {
    std::uint64_t bits[8];
    toy_bits_from_secret(secret, len, bits);
    toy_branch_core<Gf163, std::uint64_t>(
        Curve::b163().base_point().x, bits, 8,
        [&ts](std::uint64_t n) { ts.tick(n); });
  };
  return t;
}

CtTarget make_toy_table_target() {
  CtTarget t;
  t.name = "toy-table";
  t.expect_leak = true;
  t.run = [](const std::uint8_t* secret, std::size_t len,
             std::uint64_t /*aux*/, TimeSource& ts) {
    std::uint64_t bits[8];
    toy_bits_from_secret(secret, len, bits);
    toy_table_core<Gf163, std::uint64_t>(
        Curve::b163().base_point().x, bits,
        [&ts](std::uint64_t n) { ts.tick(n); });
  };
  return t;
}

std::vector<CtTarget> ct_audit_targets() {
  std::vector<CtTarget> targets;
  // The 2 × 2 core grid: both scalar backends against the per-lane
  // scalar loop and the interleaved-clmul lanes (acceptance requires all
  // four rows).
  const gf2m::Backend backends[] = {gf2m::Backend::kKaratsuba,
                                    gf2m::Backend::kClmul};
  const gf2m::LaneBackend lanes[] = {gf2m::LaneBackend::kLaneScalar,
                                     gf2m::LaneBackend::kLaneClmulWide};
  for (const auto be : backends)
    for (const auto lb : lanes) targets.push_back(make_lane_target(be, lb));
  // ISA-gated mega-lane rows (extra coverage, skipped where unavailable).
  targets.push_back(make_lane_target(gf2m::Backend::kClmul,
                                     gf2m::LaneBackend::kLaneVpclmul512));
  targets.push_back(make_lane_target(gf2m::Backend::kClmul,
                                     gf2m::LaneBackend::kLaneVpclmul256));
  // Modeled co-processor ladders: the paper's actual §5 timing claim.
  targets.push_back(make_ladder_unblinded_target());
  targets.push_back(make_ladder_blinded_target());
  // The server's secret-key multiplication, and the routine it replaced.
  targets.push_back(make_ladder_x_target());
  targets.push_back(make_scalar_mult_ld_target());
  // Negative controls.
  targets.push_back(make_toy_branch_target());
  targets.push_back(make_toy_table_target());
  return targets;
}

// --- secret-taint audits -----------------------------------------------------

namespace {

using TaintBit = Tainted<std::uint64_t>;

/// Tainted MSB-first bits of a scalar at a fixed length.
std::vector<TaintBit> taint_bits(const auto& k, std::size_t nbits) {
  std::vector<TaintBit> bits;
  bits.reserve(nbits);
  for (std::size_t i = nbits; i-- > 0;)
    bits.push_back(TaintBit(k.bit(i) ? 1 : 0));
  return bits;
}

ecc::LadderState declassify_state(const ecc::LadderStateT<TaintFe>& s) {
  return ecc::LadderState{s.x1.declassify(), s.z1.declassify(),
                          s.x2.declassify(), s.z2.declassify()};
}

}  // namespace

TaintLadderResult taint_audit_ladder_classic(const Curve& curve,
                                             const Scalar& k,
                                             const ecc::Point& p) {
  TaintContext ctx("ladder-classic");
  const TaintFe x = TaintFe::from(p.x);
  const TaintFe b = TaintFe::from(curve.b());
  const Scalar padded = ecc::constant_length_scalar(curve, k);
  const auto bits = taint_bits(padded, padded.bit_length());

  // Exactly montgomery_ladder_raw's schedule over the audited field: the
  // same ladder_*_t templates, skipping the processed leading 1.
  auto s = ecc::ladder_initial_state_t<TaintFe>(b, x);
  for (std::size_t i = 1; i < bits.size(); ++i)
    ecc::ladder_iteration_t<TaintFe>(b, x, s, bits[i]);

  return TaintLadderResult{ctx.report(), declassify_state(s)};
}

TaintLadderResult taint_audit_ladder_blinded(const Curve& curve,
                                             const WideScalar& k,
                                             std::size_t iterations,
                                             const ecc::Point& p) {
  TaintContext ctx("ladder-blinded");
  const TaintFe x = TaintFe::from(p.x);
  const TaintFe b = TaintFe::from(curve.b());
  const auto bits = taint_bits(k, iterations);

  // montgomery_ladder_fixed_raw's schedule: neutral start, every bit
  // processed, leading zeros included.
  auto s = ecc::ladder_zero_state_t(x);
  for (const TaintBit& bit : bits)
    ecc::ladder_iteration_t<TaintFe>(b, x, s, bit);

  return TaintLadderResult{ctx.report(), declassify_state(s)};
}

TaintAuditReport taint_audit_fe_arithmetic(std::uint64_t seed) {
  TaintContext ctx("fe-arithmetic");
  std::uint64_t state = seed;
  TaintFe a = TaintFe::secret_from(fe_from_stream(state));
  TaintFe b = TaintFe::secret_from(fe_from_stream(state));
  TaintFe c = TaintFe::secret_from(fe_from_stream(state));
  TaintFe d = TaintFe::secret_from(fe_from_stream(state));
  for (int i = 0; i < 4; ++i) {
    const TaintFe e = TaintFe::mul_add_mul(a, b, c, d);
    const TaintFe f = TaintFe::sqr_add_mul(e, a, c);
    a = TaintFe::mul(e, f);
    b = TaintFe::sqr(a) + d;
    TaintFe::cswap(TaintBit(rng::splitmix64(state) & 1), c, d);
  }
  (void)a.declassify();
  return ctx.report();
}

TaintAuditReport taint_audit_toy_branch(std::uint64_t seed) {
  TaintContext ctx("toy-branch");
  TaintBit bits[8];
  for (std::size_t i = 0; i < 8; ++i)
    bits[i] = TaintBit(derive_word(seed, i, 0) & 1);
  toy_branch_core<TaintFe, TaintBit>(
      TaintFe::from(Curve::b163().base_point().x), bits, 8,
      [](std::uint64_t) {});
  return ctx.report();
}

TaintAuditReport taint_audit_toy_table(std::uint64_t seed) {
  TaintContext ctx("toy-table");
  TaintBit bits[8];
  for (std::size_t i = 0; i < 8; ++i)
    bits[i] = TaintBit(derive_word(seed, i, 0) & 1);
  toy_table_core<TaintFe, TaintBit>(
      TaintFe::from(Curve::b163().base_point().x), bits,
      [](std::uint64_t) {});
  return ctx.report();
}

// --- the grid ----------------------------------------------------------------

namespace {

void append_u64(std::string& s, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  s += buf;
}

void append_f(std::string& s, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
}

/// Canonical row serialization: the digest input and the rerun-identity
/// fingerprint. Every field that reaches the JSON artifact is covered.
std::string canonical_rows(const CtAuditGrid& g) {
  std::string s;
  for (const DudectGridRow& row : g.dudect) {
    const CtTestReport& r = row.report;
    s += "d|" + r.target + "|" + r.backend + "|" + r.lanes + "|" + r.source +
         "|";
    append_u64(s, r.samples);
    s += "|";
    append_u64(s, r.n_fixed);
    s += "|";
    append_u64(s, r.n_random);
    s += "|";
    append_f(s, r.max_abs_t);
    s += "|";
    append_u64(s, static_cast<std::uint64_t>(r.worst_accumulator + 1));
    s += r.pass ? "|P" : "|F";
    s += r.skipped ? "|S" : "|-";
    s += row.expected_pass ? "|ep" : "|ef";
    s += "\n";
  }
  for (const TaintGridRow& row : g.taint) {
    const TaintAuditReport& r = row.report;
    s += "t|" + r.target + "|";
    append_u64(s, r.ops);
    for (const TaintViolation& v : r.violations) {
      s += "|";
      s += taint_violation_name(v.kind);
      s += ":" + v.site + ":";
      append_u64(s, v.count);
    }
    s += row.expected_clean ? "|ec" : "|ev";
    s += "\n";
  }
  return s;
}

std::string digest_of(const CtAuditGrid& g) {
  const std::string rows = canonical_rows(g);
  const auto d = hash::Sha256::digest(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(rows.data()), rows.size()));
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t b : d) {
    out += hex[b >> 4];
    out += hex[b & 0xF];
  }
  return out;
}

bool name_matches(const std::string& filter, const CtTarget& t) {
  if (filter.empty()) return true;
  const std::string full = t.name + "/" + t.backend + "/" + t.lanes;
  return full.find(filter) != std::string::npos;
}

/// One full pass over every target with both engines.
CtAuditGrid run_grid_once(const GridConfig& config) {
  CtAuditGrid grid;

  auto ts = make_time_source(config.source);
  for (const CtTarget& target : ct_audit_targets()) {
    if (!name_matches(config.target_filter, target)) continue;
    CtTestConfig tc;
    tc.samples = target.modeled ? config.model_samples : config.samples;
    tc.calibration = target.modeled
                         ? std::min<std::size_t>(config.calibration, 16)
                         : config.calibration;
    tc.seed = config.seed;
    tc.threshold = config.threshold;
    grid.dudect.push_back(
        DudectGridRow{run_ct_test(target, *ts, tc), !target.expect_leak});
  }

  if (config.target_filter.empty()) {
    const Curve& curve = Curve::b163();
    std::uint64_t state = config.seed;
    const Scalar k =
        Scalar{rng::splitmix64(state)}.mod(curve.order()) + Scalar{1};
    grid.taint.push_back(TaintGridRow{
        taint_audit_ladder_classic(curve, k, curve.base_point()).report,
        true});
    const WideScalar kp = sidechannel::blind_scalar(
        curve, k, rng::splitmix64(state) & ((1ULL << kBlindBits) - 1));
    grid.taint.push_back(TaintGridRow{
        taint_audit_ladder_blinded(
            curve, kp,
            sidechannel::blinded_ladder_iterations(curve, kBlindBits),
            curve.base_point())
            .report,
        true});
    grid.taint.push_back(
        TaintGridRow{taint_audit_fe_arithmetic(config.seed), true});
    grid.taint.push_back(
        TaintGridRow{taint_audit_toy_branch(config.seed), false});
    grid.taint.push_back(
        TaintGridRow{taint_audit_toy_table(config.seed), false});
  }

  grid.digest_hex = digest_of(grid);
  return grid;
}

void check_acceptance(CtAuditGrid& grid, const GridConfig& config) {
  auto fail = [&grid](std::string msg) {
    grid.acceptance_failures.push_back(std::move(msg));
  };

  // Every dudect row must match its expectation (skipped rows are
  // exempt: an ISA-gated combo that cannot run here is not a verdict).
  std::size_t combo_rows = 0, combo_unskipped = 0;
  for (const DudectGridRow& row : grid.dudect) {
    const CtTestReport& r = row.report;
    const std::string label = r.target + "/" + r.backend + "/" + r.lanes;
    if (r.skipped) continue;
    if (row.expected_pass && !r.pass)
      fail("leak detected in shipped target " + label);
    if (!row.expected_pass && r.pass)
      fail("negative control not detected: " + label +
           " (harness is blind)");
    if (r.target == "lane-ladder-step") ++combo_unskipped;
  }
  for (const DudectGridRow& row : grid.dudect)
    if (row.report.target == "lane-ladder-step") ++combo_rows;

  if (config.target_filter.empty()) {
    if (combo_rows < 6)
      fail("backend × lane grid incomplete: " + std::to_string(combo_rows) +
           " rows (want 4 core + 2 mega)");
    // The no-ISA-required combo (karatsuba × scalar) must actually have
    // run.
    if (combo_unskipped < 1)
      fail("no backend × lane combo executed");
    for (const char* name : {"ladder-unblinded", "ladder-blinded",
                             "ladder-x", "scalar-mult-ld"}) {
      const bool present = std::any_of(
          grid.dudect.begin(), grid.dudect.end(),
          [name](const DudectGridRow& row) {
            return row.report.target == name && !row.report.skipped;
          });
      if (!present) fail(std::string("required target missing: ") + name);
    }

    // Taint expectations: shipped rows clean, toys flagged with the
    // right violation kind.
    for (const TaintGridRow& row : grid.taint) {
      const TaintAuditReport& r = row.report;
      if (row.expected_clean && !r.clean())
        fail("taint violation in shipped target " + r.target);
    }
    auto taint_row = [&grid](const std::string& name) -> const
        TaintAuditReport* {
      for (const TaintGridRow& row : grid.taint)
        if (row.report.target == name) return &row.report;
      return nullptr;
    };
    const TaintAuditReport* tb = taint_row("toy-branch");
    if (tb == nullptr || !tb->has(TaintViolationKind::kSecretBranch))
      fail("taint engine missed the secret branch in toy-branch");
    const TaintAuditReport* tt = taint_row("toy-table");
    if (tt == nullptr || !tt->has(TaintViolationKind::kSecretTableIndex))
      fail("taint engine missed the secret table index in toy-table");
  }

  if (grid.rerun_checked && !grid.rerun_identical)
    fail("grid verdicts not bit-identical across reruns of seed " +
         std::to_string(config.seed));
}

}  // namespace

CtAuditGrid run_ct_audit_grid(const GridConfig& config) {
  // Kernel targets switch the global scalar backend row by row; put it
  // back the way we found it. The lane dispatch is never touched.
  const gf2m::Backend saved_backend = gf2m::active_backend();

  CtAuditGrid grid = run_grid_once(config);

  const bool deterministic = make_time_source(config.source)->deterministic();
  if (config.rerun_check && deterministic) {
    const CtAuditGrid second = run_grid_once(config);
    grid.rerun_checked = true;
    grid.rerun_identical = (second.digest_hex == grid.digest_hex);
  }

  gf2m::set_backend(saved_backend);

  check_acceptance(grid, config);
  return grid;
}

// --- JSON artifact -----------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool write_ct_audit_json(const CtAuditGrid& grid, const GridConfig& config,
                         const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"medsec-ct-audit-v1\",\n");
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(config.seed));
  std::fprintf(f, "  \"source\": \"%s\",\n",
               time_source_name(config.source));
  std::fprintf(f, "  \"samples\": %zu,\n", config.samples);
  std::fprintf(f, "  \"model_samples\": %zu,\n", config.model_samples);
  std::fprintf(f, "  \"threshold\": %.17g,\n", config.threshold);
  std::fprintf(f, "  \"deterministic_rerun_checked\": %s,\n",
               grid.rerun_checked ? "true" : "false");
  std::fprintf(f, "  \"deterministic_rerun_identical\": %s,\n",
               grid.rerun_identical ? "true" : "false");
  std::fprintf(f, "  \"grid_digest\": \"%s\",\n", grid.digest_hex.c_str());
  std::fprintf(f, "  \"acceptance_ok\": %s,\n",
               grid.acceptance_ok() ? "true" : "false");
  std::fprintf(f, "  \"acceptance_failures\": [");
  for (std::size_t i = 0; i < grid.acceptance_failures.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                 json_escape(grid.acceptance_failures[i]).c_str());
  std::fprintf(f, "],\n");

  std::fprintf(f, "  \"dudect\": [\n");
  for (std::size_t i = 0; i < grid.dudect.size(); ++i) {
    const CtTestReport& r = grid.dudect[i].report;
    std::fprintf(
        f,
        "    {\"target\": \"%s\", \"backend\": \"%s\", \"lanes\": \"%s\", "
        "\"source\": \"%s\", \"samples\": %zu, \"n_fixed\": %zu, "
        "\"n_random\": %zu, \"max_abs_t\": %.17g, "
        "\"worst_accumulator\": %d, \"threshold\": %.17g, "
        "\"pass\": %s, \"skipped\": %s, \"expected\": \"%s\"}%s\n",
        json_escape(r.target).c_str(), json_escape(r.backend).c_str(),
        json_escape(r.lanes).c_str(), r.source.c_str(), r.samples,
        r.n_fixed, r.n_random, r.max_abs_t, r.worst_accumulator,
        r.threshold, r.pass ? "true" : "false",
        r.skipped ? "true" : "false",
        grid.dudect[i].expected_pass ? "pass" : "fail",
        i + 1 == grid.dudect.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");

  std::fprintf(f, "  \"taint\": [\n");
  for (std::size_t i = 0; i < grid.taint.size(); ++i) {
    const TaintAuditReport& r = grid.taint[i].report;
    std::fprintf(f,
                 "    {\"target\": \"%s\", \"ops\": %llu, \"clean\": %s, "
                 "\"expected\": \"%s\", \"violations\": [",
                 json_escape(r.target).c_str(),
                 static_cast<unsigned long long>(r.ops),
                 r.clean() ? "true" : "false",
                 grid.taint[i].expected_clean ? "clean" : "violations");
    for (std::size_t v = 0; v < r.violations.size(); ++v) {
      const TaintViolation& viol = r.violations[v];
      std::fprintf(f,
                   "%s{\"kind\": \"%s\", \"site\": \"%s\", \"count\": %llu}",
                   v == 0 ? "" : ", ", taint_violation_name(viol.kind),
                   json_escape(viol.site).c_str(),
                   static_cast<unsigned long long>(viol.count));
    }
    std::fprintf(f, "]}%s\n", i + 1 == grid.taint.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

}  // namespace medsec::ctaudit
