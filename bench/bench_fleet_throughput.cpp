// Fleet throughput — the verifier-layer scenario family: the amortization
// win of batched Schnorr verification for a server facing many tags.
//
// No paper table: the paper stops at one tag <-> one mini-server. The
// claim measured and printed up front: verifying a batch of 64
// transcripts by random linear combination (one interleaved multi-scalar
// multiplication + one shared batch-inversion decode) beats 64
// independent schnorr_verify calls by at least 2x when the transcripts
// share one key, as every serving workload sends them (the exit status
// checks it); the distinct-key figure is printed beside it. Then what a
// forged batch costs: the bisection that isolates one forgery, and the
// all-forged worst case. Full-stack sessions/s of the sharded serving
// engine is bench_loadgen's BM_Loadgen rows.
//
// Emits BENCH_fleet.json (google-benchmark JSON schema) for the perf
// trajectory unless --benchmark_out is given.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "ecc/curve.h"
#include "engine/batch_verifier.h"
#include "gf2m/backend.h"
#include "protocol/schnorr.h"
#include "protocol/wire.h"

namespace {

using namespace medsec;
namespace proto = protocol;

struct HonestBatch {
  std::vector<proto::SchnorrTranscript> transcripts;
  std::vector<ecc::Point> keys;
  std::vector<std::vector<std::uint8_t>> wires;  ///< encoded commitments
};

/// Deterministic pool of honest transcripts (and their wire encodings),
/// each under its own key or, with `one_key`, all under one fleet key.
const HonestBatch& honest_batch(std::size_t n, bool one_key = false) {
  static std::map<std::pair<std::size_t, bool>, HonestBatch> cache;
  auto& slot = cache[{n, one_key}];
  if (!slot.transcripts.empty()) return slot;
  const ecc::Curve& c = ecc::Curve::k163();
  rng::Xoshiro256 rng(one_key ? 81 : 77);
  const auto fleet_key = one_key ? proto::schnorr_keygen(c, rng)
                                 : proto::SchnorrKeyPair{};
  for (std::size_t i = 0; i < n; ++i) {
    const auto kp = one_key ? fleet_key : proto::schnorr_keygen(c, rng);
    const auto session = proto::run_schnorr_session(c, kp, rng);
    slot.transcripts.push_back(session.view);
    slot.keys.push_back(kp.X);
    slot.wires.push_back(proto::encode_point(c, session.view.commitment));
  }
  return slot;
}

/// A 64-item pool with the responses of its first `forged` items altered:
/// each of those fails schnorr_verify.
std::vector<proto::SchnorrTranscript> forged_batch(std::size_t forged,
                                                   bool one_key = false) {
  const auto& ring = ecc::Curve::k163().scalar_ring();
  std::vector<proto::SchnorrTranscript> ts =
      honest_batch(64, one_key).transcripts;
  for (std::size_t i = 0; i < forged; ++i)
    ts[i].response = ring.add(ts[i].response, ecc::Scalar{1});
  return ts;
}

// --- the headline numbers, printed before the timers -------------------------

/// Prints the table; false when a forged batch's verdicts differ from
/// schnorr_verify's or the one-key batch is less than 2x 64 single
/// verifies.
bool print_table() {
  bench::banner("Fleet throughput: batched transcript verification",
                "verifier-layer scaling scenario (beyond the paper's 1:1 link)");

  const ecc::Curve& c = ecc::Curve::k163();
  rng::Xoshiro256 rng(78);
  using clock = std::chrono::steady_clock;
  constexpr int kReps = 20;

  // Per pool: N x (decode commitment from the wire + double-scalar
  // verifier equation) — what a batch-size-1 server does per session —
  // against decoding all commitments with one shared inversion, then one
  // RLC multi-scalar multiplication.
  struct Cost {
    double independent_s, batched_s;
  };
  const auto cost = [&](const HonestBatch& pool) {
    const auto t0 = clock::now();
    for (int r = 0; r < kReps; ++r)
      for (std::size_t i = 0; i < pool.transcripts.size(); ++i) {
        const auto p = proto::decode_point(c, pool.wires[i]);
        auto t = pool.transcripts[i];
        t.commitment = *p;
        benchmark::DoNotOptimize(proto::schnorr_verify(c, pool.keys[i], t));
      }
    const auto t1 = clock::now();
    for (int r = 0; r < kReps; ++r) {
      const auto pts = engine::decode_points_batch(c, pool.wires);
      std::vector<proto::SchnorrTranscript> ts = pool.transcripts;
      for (std::size_t i = 0; i < ts.size(); ++i) ts[i].commitment = *pts[i];
      const auto out = engine::schnorr_verify_batch(c, ts, pool.keys, rng);
      benchmark::DoNotOptimize(&out.ok);
    }
    const auto t2 = clock::now();
    return Cost{std::chrono::duration<double>(t1 - t0).count() / kReps,
                std::chrono::duration<double>(t2 - t1).count() / kReps};
  };
  const Cost distinct = cost(honest_batch(64));
  const Cost one_key = cost(honest_batch(64, /*one_key=*/true));

  std::printf("verification of 64 Schnorr transcripts (backend: %s):\n",
              gf2m::backend_name(gf2m::active_backend()));
  std::printf("                               distinct keys          "
              "one key\n");
  std::printf("  64 x schnorr_verify        : %8.2f us (%5.2f/item)  "
              "%8.2f us (%5.2f/item)\n",
              distinct.independent_s * 1e6, distinct.independent_s * 1e6 / 64,
              one_key.independent_s * 1e6, one_key.independent_s * 1e6 / 64);
  std::printf("  1 x batch (decode + RLC)   : %8.2f us (%5.2f/item)  "
              "%8.2f us (%5.2f/item)\n",
              distinct.batched_s * 1e6, distinct.batched_s * 1e6 / 64,
              one_key.batched_s * 1e6, one_key.batched_s * 1e6 / 64);
  const double one_key_speedup = one_key.independent_s / one_key.batched_s;
  std::printf("  speedup                    : %8.2fx                "
              "%8.2fx (acceptance: >= 2x)\n",
              distinct.independent_s / distinct.batched_s, one_key_speedup);

  // Forged batches (commitments already decoded): the RLC check fails and
  // bisection over the same table isolates the forgeries. The verdicts are
  // checked here, once, outside every timed loop.
  bool verdicts_ok = true;
  for (const bool shared : {false, true}) {
    const auto& pool = honest_batch(64, shared);
    const auto rlc_s = [&](const std::vector<proto::SchnorrTranscript>& ts) {
      const auto t = clock::now();
      for (int r = 0; r < kReps; ++r) {
        const auto out = engine::schnorr_verify_batch(c, ts, pool.keys, rng);
        benchmark::DoNotOptimize(&out.ok);
      }
      return std::chrono::duration<double>(clock::now() - t).count() / kReps;
    };
    const double honest_s = rlc_s(pool.transcripts);
    std::printf("RLC batch of 64, %s (commitments decoded), cost vs "
                "honest:\n",
                shared ? "one key" : "distinct keys");
    std::printf("  honest                     : %8.2f us\n", honest_s * 1e6);
    for (const std::size_t forged : {std::size_t{1}, std::size_t{64}}) {
      const auto ts = forged_batch(forged, shared);
      const auto out = engine::schnorr_verify_batch(c, ts, pool.keys, rng);
      for (std::size_t i = 0; i < ts.size(); ++i)
        verdicts_ok &=
            out.ok[i] == proto::schnorr_verify(c, pool.keys[i], ts[i]);
      const double forged_s = rlc_s(ts);
      std::printf(
          "  %2zu forged                  : %8.2f us  (%.2fx honest)\n",
          forged, forged_s * 1e6, forged_s / honest_s);
    }
  }
  if (!verdicts_ok)
    std::printf("FAIL: batch verdicts differ from schnorr_verify\n");
  if (one_key_speedup < 2.0)
    std::printf("FAIL: one-key batch speedup %.2fx is below 2x\n",
                one_key_speedup);
  return verdicts_ok && one_key_speedup >= 2.0;
}

// --- microbenchmarks ---------------------------------------------------------

void BM_SchnorrVerifySingle(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  const auto& pool = honest_batch(64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        proto::schnorr_verify(c, pool.keys[i], pool.transcripts[i]));
    i = (i + 1) % pool.transcripts.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SchnorrVerifySingle);

void BM_SchnorrVerifyBatchRlc(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto& pool = honest_batch(n);
  rng::Xoshiro256 rng(79);
  for (auto _ : state) {
    const auto out =
        engine::schnorr_verify_batch(c, pool.transcripts, pool.keys, rng);
    benchmark::DoNotOptimize(&out.ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchnorrVerifyBatchRlc)->Arg(8)->Arg(64)->ArgName("batch");

/// The honest 64-item pool with 1 or all 64 responses forged: the failed
/// RLC check plus the bisection that isolates the forgeries (verdicts
/// checked in print_table).
void BM_SchnorrVerifyBatchForged(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  const auto forged = static_cast<std::size_t>(state.range(0));
  const auto& pool = honest_batch(64);
  const auto ts = forged_batch(forged);
  rng::Xoshiro256 rng(80);
  for (auto _ : state) {
    const auto out = engine::schnorr_verify_batch(c, ts, pool.keys, rng);
    benchmark::DoNotOptimize(&out.ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_SchnorrVerifyBatchForged)->Arg(1)->Arg(64)->ArgName("forged");

/// The 64-item batch under one fleet key, as every serving workload sends
/// it: one MSM base carries the key's folded scalar.
void BM_SchnorrVerifyBatchOneKey(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto& pool = honest_batch(n, /*one_key=*/true);
  rng::Xoshiro256 rng(82);
  for (auto _ : state) {
    const auto out =
        engine::schnorr_verify_batch(c, pool.transcripts, pool.keys, rng);
    benchmark::DoNotOptimize(&out.ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchnorrVerifyBatchOneKey)->Arg(64)->ArgName("batch");

/// The one-key pool with its first response forged (verdicts checked in
/// print_table).
void BM_SchnorrVerifyBatchOneKeyForged(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  const auto forged = static_cast<std::size_t>(state.range(0));
  const auto& pool = honest_batch(64, /*one_key=*/true);
  const auto ts = forged_batch(forged, /*one_key=*/true);
  rng::Xoshiro256 rng(83);
  for (auto _ : state) {
    const auto out = engine::schnorr_verify_batch(c, ts, pool.keys, rng);
    benchmark::DoNotOptimize(&out.ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_SchnorrVerifyBatchOneKeyForged)->Arg(1)->ArgName("forged");

void BM_DecodePointSingle(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  const auto& pool = honest_batch(64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::decode_point(c, pool.wires[i]));
    i = (i + 1) % pool.wires.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DecodePointSingle);

void BM_DecodePointsBatch(benchmark::State& state) {
  const ecc::Curve& c = ecc::Curve::k163();
  const auto& pool = honest_batch(64);
  for (auto _ : state) {
    const auto pts = engine::decode_points_batch(c, pool.wires);
    benchmark::DoNotOptimize(pts.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_DecodePointsBatch);

}  // namespace

int main(int argc, char** argv) {
  if (!print_table()) return 1;
  return medsec::bench::run_benchmarks_with_json(argc, argv,
                                                 "BENCH_fleet.json");
}
