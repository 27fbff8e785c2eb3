// E4b — the attack × countermeasure × lane-backend evaluation matrix.
//
// The paper's §7 table is one attack against one countermeasure. This
// bench runs the generalized grid through sidechannel/eval.h: every
// key-recovery attack (known-input CPA, white-box CPA, DoM) plus TVLA
// against every countermeasure configuration (none, RPC, scalar
// blinding, base-point blinding, shuffled schedule, everything), prints
// the verdict table, and writes the machine-readable verdict matrix to
// BENCH_eval_matrix.json (schema medsec-eval-matrix-v1). The
// google-benchmark timers then measure the per-cell campaign cost for
// the perf-trajectory artifact (BENCH_e4_eval.json).
//
// Exit status enforces the acceptance shape: the bare ladder must fall
// to the white-box CPA, and scalar blinding must hold against it at the
// same trace budget with TVLA t-max under 4.5.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "sidechannel/eval.h"
#include "sidechannel/trace_sim.h"

namespace {

using namespace medsec;
namespace sc = sidechannel;

ecc::Scalar campaign_secret() {
  rng::Xoshiro256 rng(2013);
  return rng.uniform_nonzero(ecc::Curve::k163().order());
}

void print_matrix_and_check() {
  bench::banner("E4b: attack x countermeasure x lane-backend matrix",
                "Section 7 generalized: defense evaluation at campaign "
                "scale");

  const ecc::Curve& curve = ecc::Curve::k163();
  const ecc::Scalar secret = campaign_secret();

  sc::EvalConfig cfg = sc::EvalConfig::standard();
  cfg.break_sweep = {100, 200, 400};
  const sc::EvalMatrix matrix = sc::run_eval_matrix(curve, secret, cfg);

  std::printf("%-14s %-22s %-10s %7s %9s %7s %9s %8s %8s\n", "attack",
              "countermeasure", "lanes", "traces", "accuracy", "t-max",
              "to-break", "verdict", "seconds");
  for (const sc::EvalCell& c : matrix.cells) {
    char to_break[24];  // any %zu: 20 digits and the NUL
    if (c.attack == "tvla") std::snprintf(to_break, sizeof(to_break), "-");
    else if (c.traces_to_break == 0)
      std::snprintf(to_break, sizeof(to_break), "held");
    else
      std::snprintf(to_break, sizeof(to_break), "%zu", c.traces_to_break);
    std::printf("%-14s %-22s %-10s %7zu %9.3f %7.2f %9s %8s %8.2f\n",
                c.attack.c_str(), c.countermeasure.c_str(),
                c.lane_backend.c_str(), c.traces, c.accuracy, c.tvla_max_t,
                to_break, c.defense_holds ? "HOLDS" : "BROKEN", c.seconds);
  }

  if (!matrix.write_json("BENCH_eval_matrix.json")) {
    std::fprintf(stderr, "failed to write BENCH_eval_matrix.json\n");
    std::exit(1);
  }
  std::printf("\nverdict table written to BENCH_eval_matrix.json (%zu "
              "cells)\n",
              matrix.cells.size());

  // Acceptance shape: bare ladder falls to white-box CPA; scalar
  // blinding holds against it at the same budget and passes TVLA.
  const auto find = [&](const char* attack, const char* cm) {
    for (const sc::EvalCell& c : matrix.cells)
      if (c.attack == attack && c.countermeasure == cm) return c;
    std::fprintf(stderr, "matrix missing cell %s x %s\n", attack, cm);
    std::exit(1);
  };
  const auto bare = find("cpa-whitebox", "none");
  const auto blinded = find("cpa-whitebox", "blind");
  const auto blinded_tvla = find("tvla", "blind");
  const bool ok = bare.key_recovered && !blinded.key_recovered &&
                  blinded.accuracy < 0.9 && blinded_tvla.tvla_max_t < 4.5;
  std::printf("acceptance shape (bare broken, blind holds + TVLA < 4.5): "
              "%s\n",
              ok ? "yes" : "NO (BUG)");
  if (!ok) std::exit(1);

  // Fault-adversary acceptance shape. The matrix must carry both fault
  // attacks against at least three fault-countermeasure columns, the
  // bare and rpc-only (paper's shipped) chips must FALL to both, and the
  // detector rows must HOLD with a dead oracle.
  bool fault_ok = true;
  const auto expect = [&](const sc::EvalCell& c, bool holds) {
    const bool cell_ok =
        c.defense_holds == holds &&
        (holds ? c.informative_shots == 0 : c.key_recovered);
    if (!cell_ok) {
      std::fprintf(stderr, "fault cell %s x %s: expected %s, got %s "
                           "(informative=%zu, recovered=%d)\n",
                   c.attack.c_str(), c.countermeasure.c_str(),
                   holds ? "HOLDS" : "BROKEN",
                   c.defense_holds ? "HOLDS" : "BROKEN",
                   c.informative_shots, int(c.key_recovered));
      fault_ok = false;
    }
  };
  std::size_t fault_cm_columns = 0;
  for (const sc::EvalCell& c : matrix.cells)
    if (c.attack == "fault-safe-error" &&
        (c.countermeasure.find("validate") != std::string::npos ||
         c.countermeasure.find("infect") != std::string::npos))
      ++fault_cm_columns;
  if (fault_cm_columns < 3) {
    std::fprintf(stderr, "only %zu fault-countermeasure columns (need 3)\n",
                 fault_cm_columns);
    fault_ok = false;
  }
  const std::string validated = sc::CountermeasureConfig::validated().name();
  const std::string infective = sc::CountermeasureConfig::infective().name();
  for (const char* atk : {"fault-safe-error", "fault-invalid-point"}) {
    expect(find(atk, "none"), false);
    expect(find(atk, "rpc"), false);
    expect(find(atk, validated.c_str()), true);
    expect(find(atk, infective.c_str()), true);
  }
  std::printf("fault acceptance shape (bare/rpc broken, validated & "
              "infective hold, %zu fault-cm columns): %s\n",
              fault_cm_columns, fault_ok ? "yes" : "NO (BUG)");
  if (!fault_ok) std::exit(1);
}

void BM_EvalCell_CpaWhiteBox_Blind(benchmark::State& state) {
  const ecc::Curve& curve = ecc::Curve::k163();
  const ecc::Scalar secret = campaign_secret();
  sc::EvalConfig cfg;
  cfg.countermeasures = {sc::CountermeasureConfig::scalar_blinded()};
  cfg.attacks = {sc::EvalAttack::kCpaWhiteBox};
  cfg.seed = 2024;
  for (auto _ : state) {
    auto m = sc::run_eval_matrix(curve, secret, cfg);
    benchmark::DoNotOptimize(m.cells.size());
  }
  state.SetLabel("one matrix cell: 400-trace blinded campaign + CPA");
}
BENCHMARK(BM_EvalCell_CpaWhiteBox_Blind)->Unit(benchmark::kMillisecond);

void BM_EvalCell_Tvla_Full(benchmark::State& state) {
  const ecc::Curve& curve = ecc::Curve::k163();
  const ecc::Scalar secret = campaign_secret();
  sc::EvalConfig cfg;
  cfg.countermeasures = {sc::CountermeasureConfig::full()};
  cfg.attacks = {sc::EvalAttack::kTvla};
  cfg.seed = 2024;
  for (auto _ : state) {
    auto m = sc::run_eval_matrix(curve, secret, cfg);
    benchmark::DoNotOptimize(m.cells.size());
  }
  state.SetLabel("one matrix cell: 2x120-trace TVLA under full config");
}
BENCHMARK(BM_EvalCell_Tvla_Full)->Unit(benchmark::kMillisecond);

void BM_BlindedCampaignGeneration(benchmark::State& state) {
  const ecc::Curve& curve = ecc::Curve::k163();
  const ecc::Scalar secret = campaign_secret();
  sc::AlgorithmicSimConfig sim;
  sim.seed = 7;
  sim.countermeasures = sc::CountermeasureConfig::scalar_blinded();
  for (auto _ : state) {
    auto exp = sc::generate_dpa_traces(curve, secret, 400,
                                       sc::RpcScenario::kDisabled, sim);
    benchmark::DoNotOptimize(exp.traces.traces.size());
  }
  state.SetItemsProcessed(state.iterations() * 400);
  state.SetLabel("400 blinded (196-iteration) wide-lane ladder traces");
}
BENCHMARK(BM_BlindedCampaignGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_matrix_and_check();
  return medsec::bench::run_benchmarks_with_json(argc, argv,
                                                 "BENCH_e4_eval.json");
}
