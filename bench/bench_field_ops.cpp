// Microbenchmarks of the arithmetic substrates — the performance baseline
// for everything above them (no paper table; supporting data for the
// README's Benchmarks section).
//
// The Gf163 benchmarks run once per arithmetic backend and the BM_Lane*
// benchmarks once per lane backend, each row named after its backend
// (BM_Gf163Mul/clmul, BM_LaneMul/vpclmul512); rows for backends this CPU
// lacks are skipped with an error note. Unless the
// caller passes its own --benchmark_out, the run also emits
// BENCH_field_ops.json (google-benchmark's JSON schema) next to the
// binary, which the CI job archives as the perf trajectory artifact.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bigint/modring.h"
#include "ctaudit/audit.h"
#include "ecc/curve.h"
#include "ecc/fixed_base.h"
#include "ecc/koblitz.h"
#include "ecc/ladder.h"
#include "ecc/ladder_many.h"
#include "ecc/scalar_mult.h"
#include "gf2m/backend.h"
#include "gf2m/gf163_lanes.h"
#include "gf2m/gf2_163.h"
#include "rng/xoshiro.h"

namespace {

using namespace medsec;
using gf2m::Backend;
using gf2m::Gf163;
using gf2m::Gf163xN;
using gf2m::LaneBackend;

Gf163 rand_fe(rng::Xoshiro256& rng) {
  bigint::U192 v;
  for (std::size_t i = 0; i < 3; ++i) v.set_limb(i, rng.next_u64());
  return Gf163::from_bits(v);
}

/// Switch the global dispatch to backend `b`; returns false (after
/// flagging the run) when it is unavailable.
bool use_backend(benchmark::State& state, Backend b) {
  if (gf2m::set_backend(b)) return true;
  state.SkipWithError("backend unavailable on this CPU");
  return false;
}

/// One row per compiled-in backend, named after it (BM_Gf163Mul/clmul,
/// BM_LaneMul/vpclmul512), so a row keeps its meaning when the backend
/// list changes.
bool register_rows(const char* bench,
                   void (*fn)(benchmark::State&, Backend)) {
  for (const Backend b : gf2m::known_backends())
    benchmark::RegisterBenchmark(
        (std::string(bench) + "/" + gf2m::backend_name(b)).c_str(), fn, b);
  return true;
}

bool register_rows(const char* bench,
                   void (*fn)(benchmark::State&, LaneBackend)) {
  for (const LaneBackend b : gf2m::known_lane_backends())
    benchmark::RegisterBenchmark(
        (std::string(bench) + "/" + gf2m::lane_backend_name(b)).c_str(), fn,
        b);
  return true;
}

#define MEDSEC_BENCH_BACKENDS(fn) \
  [[maybe_unused]] const bool fn##_rows = register_rows(#fn, fn)

// The single-op rows pass their inputs through DoNotOptimize on every
// iteration: an op the compiler can see into must not be hoisted out of
// the timed loop as loop-invariant.

void BM_Gf163Mul(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  rng::Xoshiro256 rng(1);
  Gf163 a = rand_fe(rng), b = rand_fe(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    benchmark::DoNotOptimize(Gf163::mul(a, b));
  }
}
MEDSEC_BENCH_BACKENDS(BM_Gf163Mul);

/// Dependent chain: each multiply waits for the previous one — the
/// latency a caller of the per-operation API sees.
void BM_Gf163MulChain(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  rng::Xoshiro256 rng(14);
  Gf163 acc = rand_fe(rng), b = rand_fe(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b);
    acc = Gf163::mul(acc, b);
    benchmark::DoNotOptimize(acc);
  }
}
MEDSEC_BENCH_BACKENDS(BM_Gf163MulChain);

/// 1024 independent Gf163::mul over arrays: the per-operation API's
/// throughput, comparable per batch with the BM_LaneMul rows (the ratio
/// gate against BM_LaneMul/clmulwide bounds the per-call dispatch cost).
void BM_Gf163MulStream(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  constexpr std::size_t kStream = 1024;
  rng::Xoshiro256 rng(15);
  std::vector<Gf163> a(kStream), b(kStream), out(kStream);
  for (std::size_t i = 0; i < kStream; ++i) {
    a[i] = rand_fe(rng);
    b[i] = rand_fe(rng);
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < kStream; ++i) out[i] = Gf163::mul(a[i], b[i]);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kStream);
}
MEDSEC_BENCH_BACKENDS(BM_Gf163MulStream);

void BM_Gf163MulAddMul(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  rng::Xoshiro256 rng(11);
  Gf163 a = rand_fe(rng), b = rand_fe(rng);
  Gf163 c = rand_fe(rng), d = rand_fe(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    benchmark::DoNotOptimize(c);
    benchmark::DoNotOptimize(d);
    benchmark::DoNotOptimize(Gf163::mul_add_mul(a, b, c, d));
  }
}
MEDSEC_BENCH_BACKENDS(BM_Gf163MulAddMul);

void BM_Gf163Sqr(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  rng::Xoshiro256 rng(2);
  Gf163 a = rand_fe(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(Gf163::sqr(a));
  }
}
MEDSEC_BENCH_BACKENDS(BM_Gf163Sqr);

void BM_Gf163Inv(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  rng::Xoshiro256 rng(3);
  const Gf163 a = rand_fe(rng);
  for (auto _ : state) benchmark::DoNotOptimize(Gf163::inv(a));
}
MEDSEC_BENCH_BACKENDS(BM_Gf163Inv);

void BM_Gf163BatchInv(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  rng::Xoshiro256 rng(13);
  constexpr std::size_t kBatch = 64;
  std::vector<Gf163> pool(kBatch);
  for (auto& e : pool) {
    e = rand_fe(rng);
    if (e.is_zero()) e = Gf163::one();
  }
  std::vector<Gf163> work(kBatch);
  for (auto _ : state) {
    work = pool;
    Gf163::batch_inv(work.data(), work.size());
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
}
MEDSEC_BENCH_BACKENDS(BM_Gf163BatchInv);

void BM_Gf163Sqrt(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  rng::Xoshiro256 rng(4);
  const Gf163 a = rand_fe(rng);
  for (auto _ : state) benchmark::DoNotOptimize(Gf163::sqrt(a));
}
MEDSEC_BENCH_BACKENDS(BM_Gf163Sqrt);

void BM_LadderIteration(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  const ecc::Curve& c = ecc::Curve::k163();
  ecc::LadderState s =
      ecc::ladder_initial_state(c.b(), c.base_point().x);
  std::uint64_t bit = 0;
  for (auto _ : state) {
    ecc::ladder_iteration(c.b(), c.base_point().x, s, bit ^= 1);
    benchmark::DoNotOptimize(s.x1);
  }
}
MEDSEC_BENCH_BACKENDS(BM_LadderIteration);

void BM_LadderScalarMult(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  const ecc::Curve& c = ecc::Curve::k163();
  rng::Xoshiro256 rng(7);
  const auto k = rng.uniform_nonzero(c.order());
  for (auto _ : state)
    benchmark::DoNotOptimize(ecc::montgomery_ladder(c, k, c.base_point()));
}
MEDSEC_BENCH_BACKENDS(BM_LadderScalarMult);

void BM_FixedBaseCombMult(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  const ecc::Curve& c = ecc::Curve::k163();
  const auto& comb = ecc::generator_comb(c);
  rng::Xoshiro256 rng(8);
  const auto k = rng.uniform_nonzero(c.order());
  for (auto _ : state) benchmark::DoNotOptimize(comb.mult(k));
}
MEDSEC_BENCH_BACKENDS(BM_FixedBaseCombMult);

void BM_FixedBaseCombMultCt(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  const ecc::Curve& c = ecc::Curve::k163();
  const auto& comb = ecc::generator_comb(c);
  rng::Xoshiro256 rng(9);
  const auto k = rng.uniform_nonzero(c.order());
  for (auto _ : state) benchmark::DoNotOptimize(comb.mult_ct(k));
}
MEDSEC_BENCH_BACKENDS(BM_FixedBaseCombMultCt);

void BM_TauNafMultPrecomp(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  const ecc::Curve& c = ecc::Curve::k163();
  const auto& pre = ecc::generator_tau_precomp(c);
  rng::Xoshiro256 rng(10);
  const auto k = rng.uniform_nonzero(c.order());
  for (auto _ : state)
    benchmark::DoNotOptimize(ecc::tau_naf_mult(c, k, pre));
}
MEDSEC_BENCH_BACKENDS(BM_TauNafMultPrecomp);

/// The reader-side k·G + l·Q (PH identification, Schnorr verification) on
/// K-163, which runs tau-adic: random public scalars and random subgroup
/// points, cycled over 16 jobs so the digits vary between iterations.
/// check_perf_regression.py gates BM_LadderScalarMult / this row.
void BM_DoubleScalarMult(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  const ecc::Curve& c = ecc::Curve::k163();
  rng::Xoshiro256 rng(11);
  constexpr std::size_t kJobs = 16;
  std::vector<ecc::Scalar> ks, ls;
  std::vector<ecc::Point> qs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    ks.push_back(rng.uniform_nonzero(c.order()));
    ls.push_back(rng.uniform_nonzero(c.order()));
    qs.push_back(ecc::generator_comb(c).mult(rng.uniform_nonzero(c.order())));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ecc::double_scalar_mult(c, ks[i], c.base_point(), ls[i], qs[i]));
    i = (i + 1) % kJobs;
  }
}
MEDSEC_BENCH_BACKENDS(BM_DoubleScalarMult);

void BM_AffinePointAdd(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  const ecc::Curve& c = ecc::Curve::k163();
  const ecc::Point g = c.base_point();
  ecc::Point p = c.dbl(g);
  for (auto _ : state) {
    p = c.add(p, g);
    benchmark::DoNotOptimize(p);
  }
}
MEDSEC_BENCH_BACKENDS(BM_AffinePointAdd);

void BM_ValidateSubgroupPoint(benchmark::State& state, Backend backend) {
  if (!use_backend(state, backend)) return;
  const ecc::Curve& c = ecc::Curve::k163();
  rng::Xoshiro256 rng(12);
  const ecc::Point p =
      ecc::montgomery_ladder(c, rng.uniform_nonzero(c.order()),
                             c.base_point());
  for (auto _ : state)
    benchmark::DoNotOptimize(c.validate_subgroup_point(p));
}
MEDSEC_BENCH_BACKENDS(BM_ValidateSubgroupPoint);

// --- wide-lane backends -----------------------------------------------------
//
// Per-lane throughput of the batch field layer, one cell per compiled-in
// lane backend (skipped with an error note when the host lacks the ISA —
// check_perf_regression.py treats those entries as optional). 1024 lanes
// amortizes every backend's block width; items_processed = lanes, so
// google-benchmark's per-item rate is ns/lane. The vpclmul512 vs
// clmulwide cells back the in-bench mega-lane speedup gate.

constexpr std::size_t kLaneBatch = 1024;

/// Pin the lane dispatch to backend `b`; returns false (after flagging
/// the run) when it is unavailable. The per-lane `scalar` loop runs over
/// karatsuba, the scalar backend auto-dispatch pairs it with.
bool use_lane_backend(benchmark::State& state, LaneBackend b) {
  if (b == LaneBackend::kLaneScalar) gf2m::set_backend(Backend::kKaratsuba);
  if (gf2m::set_lane_backend(b)) return true;
  state.SkipWithError("lane backend unavailable on this CPU");
  return false;
}

Gf163xN rand_lanes(rng::Xoshiro256& rng, std::size_t n) {
  Gf163xN v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rand_fe(rng));
  return v;
}

void BM_LaneMul(benchmark::State& state, LaneBackend backend) {
  if (!use_lane_backend(state, backend)) return;
  rng::Xoshiro256 rng(21);
  const Gf163xN a = rand_lanes(rng, kLaneBatch);
  const Gf163xN b = rand_lanes(rng, kLaneBatch);
  Gf163xN out(kLaneBatch);
  for (auto _ : state) {
    Gf163xN::mul(a, b, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kLaneBatch);
  gf2m::reset_lane_backend();
}
MEDSEC_BENCH_BACKENDS(BM_LaneMul);

void BM_LaneSqr(benchmark::State& state, LaneBackend backend) {
  if (!use_lane_backend(state, backend)) return;
  rng::Xoshiro256 rng(22);
  const Gf163xN a = rand_lanes(rng, kLaneBatch);
  Gf163xN out(kLaneBatch);
  for (auto _ : state) {
    Gf163xN::sqr(a, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kLaneBatch);
  gf2m::reset_lane_backend();
}
MEDSEC_BENCH_BACKENDS(BM_LaneSqr);

void BM_LaneMulAddMul(benchmark::State& state, LaneBackend backend) {
  if (!use_lane_backend(state, backend)) return;
  rng::Xoshiro256 rng(23);
  const Gf163xN a = rand_lanes(rng, kLaneBatch);
  const Gf163xN b = rand_lanes(rng, kLaneBatch);
  const Gf163xN c = rand_lanes(rng, kLaneBatch);
  const Gf163xN d = rand_lanes(rng, kLaneBatch);
  Gf163xN out(kLaneBatch);
  for (auto _ : state) {
    Gf163xN::mul_add_mul(a, b, c, d, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kLaneBatch);
  gf2m::reset_lane_backend();
}
MEDSEC_BENCH_BACKENDS(BM_LaneMulAddMul);

void BM_LaneSqrAddMul(benchmark::State& state, LaneBackend backend) {
  if (!use_lane_backend(state, backend)) return;
  rng::Xoshiro256 rng(24);
  const Gf163xN a = rand_lanes(rng, kLaneBatch);
  const Gf163xN b = rand_lanes(rng, kLaneBatch);
  const Gf163xN c = rand_lanes(rng, kLaneBatch);
  Gf163xN out(kLaneBatch);
  for (auto _ : state) {
    Gf163xN::sqr_add_mul(a, b, c, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kLaneBatch);
  gf2m::reset_lane_backend();
}
MEDSEC_BENCH_BACKENDS(BM_LaneSqrAddMul);

// --- server key ladders -----------------------------------------------------
//
// The PH reader's and ECIES receiver's multiplication by their long-term
// key, 64 jobs per iteration: one ladder_x each on the clmul backend,
// against one ladder_x_many lane batch pinned to vpclmul512 (skipped where
// that backend is unavailable). check_perf_regression.py gates the batch
// at >= 3x the singles.

constexpr std::size_t kKeyJobs = 64;

struct KeyJobs {
  std::vector<ecc::Scalar> ks;
  std::vector<ecc::Point> qs;
};

/// Random keys and random subgroup points, as the two call sites see them.
KeyJobs key_jobs(const ecc::Curve& c) {
  rng::Xoshiro256 rng(31);
  KeyJobs j;
  for (std::size_t i = 0; i < kKeyJobs; ++i) {
    j.ks.push_back(rng.uniform_nonzero(c.order()));
    j.qs.push_back(
        ecc::generator_comb(c).mult(rng.uniform_nonzero(c.order())));
  }
  return j;
}

void BM_LadderXSingle64(benchmark::State& state) {
  if (!use_backend(state, Backend::kClmul)) return;
  const ecc::Curve& c = ecc::Curve::k163();
  const KeyJobs j = key_jobs(c);
  for (auto _ : state)
    for (std::size_t i = 0; i < kKeyJobs; ++i)
      benchmark::DoNotOptimize(ecc::ladder_x(c, j.ks[i], j.qs[i]));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kKeyJobs);
}
BENCHMARK(BM_LadderXSingle64)->Name("BM_LadderXSingle64/clmul");

void BM_LadderXBatch64(benchmark::State& state) {
  if (!use_backend(state, Backend::kClmul) ||
      !use_lane_backend(state, LaneBackend::kLaneVpclmul512))
    return;
  const ecc::Curve& c = ecc::Curve::k163();
  const KeyJobs j = key_jobs(c);
  ecc::LadderManyWorkspace ws;
  std::vector<std::optional<ecc::Fe>> xs(kKeyJobs);
  for (auto _ : state) {
    ecc::ladder_x_many(c, j.ks.data(), j.qs.data(), kKeyJobs, ws, xs.data());
    benchmark::DoNotOptimize(xs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kKeyJobs);
  gf2m::reset_lane_backend();
}
BENCHMARK(BM_LadderXBatch64)->Name("BM_LadderXBatch64/vpclmul512");

// --- backend-independent substrates (integer scalar ring) -------------------

/// ModRing::mul: widening product + Barrett reduction.
void BM_ScalarRingMul(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  rng::Xoshiro256 rng(5);
  auto a = rng.uniform_nonzero(c.order());
  auto b = rng.uniform_nonzero(c.order());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    benchmark::DoNotOptimize(c.scalar_ring().mul(a, b));
  }
}
BENCHMARK(BM_ScalarRingMul);

/// The same product reduced by BigUInt::mod's shift-subtract loop (the
/// oracle path) — the baseline of the Barrett ratio gate.
void BM_ScalarRingMulShiftSubtract(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  rng::Xoshiro256 rng(5);
  auto a = rng.uniform_nonzero(c.order());
  auto b = rng.uniform_nonzero(c.order());
  const auto m = c.order().resize<384>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    benchmark::DoNotOptimize(widening_mul(a, b).mod(m));  // ADL: hidden friend
  }
}
BENCHMARK(BM_ScalarRingMulShiftSubtract);

/// Width-4 wNAF recoding of a full-width scalar (the MSM's per-term
/// recoding).
void BM_WnafDigits(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  rng::Xoshiro256 rng(16);
  auto k = rng.uniform_nonzero(c.order());
  for (auto _ : state) {
    benchmark::DoNotOptimize(k);
    benchmark::DoNotOptimize(ecc::wnaf_digits(k, 4));
  }
}
BENCHMARK(BM_WnafDigits);

void BM_ScalarRingInv(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  rng::Xoshiro256 rng(6);
  const auto a = rng.uniform_nonzero(c.order());
  for (auto _ : state)
    benchmark::DoNotOptimize(c.scalar_ring().inv(a));
}
BENCHMARK(BM_ScalarRingInv);

/// `--list-backends`: print every compiled-in scalar and lane backend
/// with its ISA requirement and whether this CPU can run it, then exit.
/// CI uses the exit status of `--backend-available <name>` to gate
/// matrix cells (0 = runnable here, 1 = not, 2 = unknown name).
int list_backends() {
  std::printf("scalar backends (MEDSEC_GF2M_BACKEND):\n");
  for (const Backend b : medsec::gf2m::known_backends())
    std::printf("  %-14s requires %-40s %s\n", gf2m::backend_name(b),
                gf2m::backend_requirement(b),
                gf2m::backend_available(b) ? "[available]" : "[unavailable]");
  std::printf("lane backends (MEDSEC_GF2M_LANES):\n");
  for (const LaneBackend b : medsec::gf2m::known_lane_backends()) {
    const auto* vt = gf2m::lane_vtable(b);
    std::printf("  %-14s requires %-40s %s", gf2m::lane_backend_name(b),
                gf2m::lane_backend_requirement(b),
                vt ? "[available]" : "[unavailable]");
    if (vt) std::printf("  width=%zu", vt->preferred_width);
    std::printf("\n");
  }
  std::printf("active: backend=%s lanes=%s\n",
              gf2m::backend_name(gf2m::active_backend()),
              gf2m::lane_backend_name(gf2m::active_lane_backend()));
  return 0;
}

/// `--list-ct-targets`: the constant-time audit grid's registered
/// targets (see ./ct_audit), listed next to the backends they exercise.
int list_ct_targets() {
  std::printf("constant-time audit targets (./ct_audit):\n");
  for (const medsec::ctaudit::CtTarget& t : medsec::ctaudit::ct_audit_targets())
    std::printf("  %-18s backend=%-10s lanes=%-13s %-8s %s\n",
                t.name.c_str(), t.backend.c_str(), t.lanes.c_str(),
                t.modeled ? "modeled" : "kernel",
                t.available ? "[available]" : "[unavailable]");
  return 0;
}

int backend_available(const char* name) {
  Backend sb;
  if (gf2m::backend_from_name(name, sb))
    return gf2m::backend_available(sb) ? 0 : 1;
  LaneBackend lb;
  if (gf2m::lane_backend_from_name(name, lb))
    return gf2m::lane_backend_available(lb) ? 0 : 1;
  std::fprintf(stderr, "unknown backend name: %s (see --list-backends)\n",
               name);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-backends") == 0) return list_backends();
    if (std::strcmp(argv[i], "--list-ct-targets") == 0)
      return list_ct_targets();
    if (std::strcmp(argv[i], "--backend-available") == 0 && i + 1 < argc)
      return backend_available(argv[i + 1]);
  }
  return medsec::bench::run_benchmarks_with_json(argc, argv,
                                                 "BENCH_field_ops.json");
}
