#include "sidechannel/eval.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "gf2m/backend.h"
#include "rng/xoshiro.h"
#include "sidechannel/dpa.h"
#include "sidechannel/fault_attacks.h"
#include "sidechannel/spa.h"
#include "sidechannel/trace_sim.h"
#include "sidechannel/tvla.h"

namespace medsec::sidechannel {

namespace {

using ecc::Curve;
using ecc::Scalar;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Attacker knowledge per attack: the white-box CPA sees the
/// Z-randomizers; everything else attacks the victim's actual config.
RpcScenario scenario_for(EvalAttack attack, const CountermeasureConfig& cm) {
  if (attack == EvalAttack::kCpaWhiteBox)
    return RpcScenario::kEnabledKnownRandomness;
  return cm.randomize_projective ? RpcScenario::kEnabledSecretRandomness
                                 : RpcScenario::kDisabled;
}

/// Per-countermeasure-row campaign cache: CPA and DoM attack the same
/// scenario's experiment, and the break sweep revisits the same budgets
/// per attack — generation (the dominant cost) runs once per
/// (scenario, trace count) instead of once per cell probe.
class CampaignCache {
 public:
  CampaignCache(const Curve& curve, const Scalar& k,
                const CountermeasureConfig& cm, const EvalConfig& cfg)
      : curve_(&curve), k_(&k), cm_(&cm), cfg_(&cfg) {}

  const DpaExperiment& get(RpcScenario scenario, std::size_t traces) {
    const auto key = std::make_pair(static_cast<int>(scenario), traces);
    auto it = campaigns_.find(key);
    if (it == campaigns_.end()) {
      AlgorithmicSimConfig simc;
      // The cache owns seed derivation so a budget can never be generated
      // under two different seeds: the main budget runs at config.seed,
      // every other budget at config.seed + traces (the historical sweep
      // discipline of dpa_trace_count_sweep).
      simc.seed = traces == cfg_->traces ? cfg_->seed : cfg_->seed + traces;
      simc.threads = cfg_->threads;
      simc.countermeasures = *cm_;
      it = campaigns_
               .emplace(key, generate_dpa_traces(*curve_, *k_, traces,
                                                 scenario, simc))
               .first;
    }
    return it->second;
  }

 private:
  const Curve* curve_;
  const Scalar* k_;
  const CountermeasureConfig* cm_;
  const EvalConfig* cfg_;
  std::map<std::pair<int, std::size_t>, DpaExperiment> campaigns_;
};

DpaResult run_recovery(const Curve& curve, CampaignCache& cache,
                       const CountermeasureConfig& cm, EvalAttack attack,
                       std::size_t traces, const EvalConfig& cfg) {
  const DpaExperiment& exp = cache.get(scenario_for(attack, cm), traces);
  DpaConfig dc;
  dc.bits_to_attack = cfg.bits_to_attack;
  dc.threads = cfg.threads;
  dc.statistic =
      attack == EvalAttack::kDom ? DpaStatistic::kDom : DpaStatistic::kCpa;
  return ladder_dpa_attack(curve, exp, dc);
}

TvlaReport run_tvla(const Curve& curve, const Scalar& k,
                    const CountermeasureConfig& cm, const EvalConfig& cfg) {
  const auto group = [&](bool fixed, std::uint64_t seed) {
    AlgorithmicSimConfig simc;
    simc.seed = seed;
    simc.threads = cfg.threads;
    simc.countermeasures = cm;
    simc.fixed_base_point = curve.base_point();
    simc.randomize_scalar = !fixed;
    return generate_dpa_traces(curve, k, cfg.tvla_traces_per_group,
                               cm.randomize_projective
                                   ? RpcScenario::kEnabledSecretRandomness
                                   : RpcScenario::kDisabled,
                               simc)
        .traces;
  };
  return tvla_fixed_vs_random(group(true, cfg.seed ^ 0xF1DE'F1DEull),
                              group(false, cfg.seed ^ 0x5EED'5EEDull));
}

/// One SPA cell: the §6 vectors against the row's ladder defense on a
/// worst-case circuit. The profiling device is the attacker's own
/// (known key, no ladder countermeasures, same leaky circuit); the
/// victim is averaged through the SPA feature-extractor sink, so the
/// cell never materializes a cycle trace.
void run_spa_cell(const Curve& curve, const Scalar& k,
                  const CountermeasureConfig& cm, const EvalConfig& cfg,
                  EvalCell& cell) {
  CycleSimConfig leaky;
  leaky.coproc.secure.balanced_mux_encoding = false;
  leaky.coproc.secure.uniform_clock_gating = false;
  leaky.leakage.noise_sigma = 100.0;
  leaky.threads = cfg.threads;

  // Profiling phase on a device under the attacker's control, running
  // the SAME countermeasure configuration as the victim (the config is
  // public; only its per-execution randomness is not). This keeps the
  // schedule aligned — a defense only gets credit for smearing the
  // positions (shuffle) or decorrelating the read bits (blinding), never
  // for an init-length offset the attacker would trivially re-profile.
  rng::Xoshiro256 prof_rng(cfg.seed ^ 0x5Ca5'CA5C'A5CA'5CA5ull);
  CycleSimConfig prof = leaky;
  prof.seed = cfg.seed ^ 0xBEEF'0001ull;
  prof.countermeasures = cm;
  const LadderSchedule schedule = profile_schedule(capture_cycle_trace(
      curve, prof_rng.uniform_nonzero(curve.order()), curve.base_point(),
      prof));

  // Victim: same circuit, the row's ladder countermeasures, fresh
  // randomness per averaged capture.
  CycleSimConfig victim = leaky;
  victim.countermeasures = cm;
  victim.seed = cfg.seed ^ 0xBEEF'0002ull;
  const SpaFeatures features = capture_averaged_spa_features(
      curve, k, curve.base_point(), victim, schedule, cfg.spa_captures);

  const SpaResult mux = mux_control_spa(features);
  const SpaResult gating = clock_gating_spa(features);
  cell.traces = cfg.spa_captures;
  cell.accuracy = std::max(mux.accuracy, gating.accuracy);
  cell.key_recovered = cell.accuracy >= 0.99;
  cell.defense_holds = !cell.key_recovered;
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

const char* eval_attack_name(EvalAttack a) {
  switch (a) {
    case EvalAttack::kCpaKnownInput: return "cpa";
    case EvalAttack::kCpaWhiteBox: return "cpa-whitebox";
    case EvalAttack::kDom: return "dom";
    case EvalAttack::kTvla: return "tvla";
    case EvalAttack::kSpa: return "spa";
    case EvalAttack::kFaultSafeError: return "fault-safe-error";
    case EvalAttack::kFaultInvalidPoint: return "fault-invalid-point";
  }
  return "?";
}

EvalConfig EvalConfig::standard() {
  EvalConfig cfg;
  cfg.countermeasures.push_back(CountermeasureConfig::none());
  cfg.countermeasures.push_back(CountermeasureConfig::rpc_only());
  cfg.countermeasures.push_back(CountermeasureConfig::scalar_blinded());
  CountermeasureConfig base;
  base.base_point_blinding = true;
  cfg.countermeasures.push_back(base);
  CountermeasureConfig shuffle;
  shuffle.shuffle_schedule = true;
  cfg.countermeasures.push_back(shuffle);
  cfg.countermeasures.push_back(CountermeasureConfig::full());
  // Fault-countermeasure rows: validation alone (still falls to the
  // safe-error oracle), both detectors, detectors + infective response.
  CountermeasureConfig validate;
  validate.validate_points = true;
  cfg.countermeasures.push_back(validate);
  cfg.countermeasures.push_back(CountermeasureConfig::validated());
  cfg.countermeasures.push_back(CountermeasureConfig::infective());
  cfg.attacks = {EvalAttack::kCpaKnownInput, EvalAttack::kCpaWhiteBox,
                 EvalAttack::kDom,           EvalAttack::kTvla,
                 EvalAttack::kSpa,           EvalAttack::kFaultSafeError,
                 EvalAttack::kFaultInvalidPoint};
  cfg.traces = 400;
  cfg.bits_to_attack = 12;
  cfg.seed = 2024;
  return cfg;
}

void EvalConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("EvalConfig::validate: " + what);
  };
  if (countermeasures.empty()) fail("no countermeasure rows");
  if (attacks.empty()) fail("no attacks");
  for (const EvalAttack a : attacks) {
    switch (a) {
      case EvalAttack::kCpaKnownInput:
      case EvalAttack::kCpaWhiteBox:
      case EvalAttack::kDom:
      case EvalAttack::kTvla:
      case EvalAttack::kSpa:
      case EvalAttack::kFaultSafeError:
      case EvalAttack::kFaultInvalidPoint:
        break;
      default:
        fail("unknown attack id " +
             std::to_string(static_cast<int>(a)) +
             " (known: cpa, cpa-whitebox, dom, tvla, spa, "
             "fault-safe-error, fault-invalid-point)");
    }
  }
  for (const CountermeasureConfig& cm : countermeasures) {
    if (cm.infective_computation && !cm.detects_faults())
      fail("row '" + cm.name() +
           "': infective computation requires a detector "
           "(validate_points or coherence_check)");
    if (cm.scalar_blinding &&
        (cm.scalar_blind_bits == 0 || cm.scalar_blind_bits > 64))
      fail("row '" + cm.name() + "': scalar_blind_bits " +
           std::to_string(cm.scalar_blind_bits) + " outside 1..64");
    if (cm.shuffle_schedule && cm.dummy_iterations == 0)
      fail("row '" + cm.name() +
           "': shuffle_schedule with zero dummy_iterations");
  }
  if (traces == 0) fail("traces must be positive");
  if (bits_to_attack == 0) fail("bits_to_attack must be positive");
  if (tvla_traces_per_group < 2 &&
      std::find(attacks.begin(), attacks.end(), EvalAttack::kTvla) !=
          attacks.end())
    fail("tvla_traces_per_group must be at least 2");
  if (spa_captures == 0 &&
      std::find(attacks.begin(), attacks.end(), EvalAttack::kSpa) !=
          attacks.end())
    fail("spa_captures must be positive");
}

EvalMatrix run_eval_matrix(const Curve& curve, const Scalar& k,
                           const EvalConfig& config) {
  config.validate();
  const std::string lane_backend =
      gf2m::lane_backend_name(gf2m::active_lane_backend());

  EvalMatrix out;
  out.cells.reserve(config.countermeasures.size() * config.attacks.size());

  for (const CountermeasureConfig& cm : config.countermeasures) {
    CampaignCache cache(curve, k, cm, config);
    for (const EvalAttack attack : config.attacks) {
      const auto t0 = std::chrono::steady_clock::now();
      EvalCell cell;
      cell.attack = eval_attack_name(attack);
      cell.countermeasure = cm.name();
      cell.lane_backend = lane_backend;

      if (attack == EvalAttack::kTvla) {
        cell.traces = 2 * config.tvla_traces_per_group;
        const TvlaReport rep = run_tvla(curve, k, cm, config);
        cell.tvla_max_t = rep.max_abs_t;
        cell.tvla_leaks = rep.leaks();
        cell.defense_holds = !rep.leaks();
      } else if (attack == EvalAttack::kSpa) {
        run_spa_cell(curve, k, cm, config, cell);
      } else if (attack == EvalAttack::kFaultSafeError ||
                 attack == EvalAttack::kFaultInvalidPoint) {
        // Fault cells are per-shot, not per-trace: bits_to_attack
        // glitched executions against the guarded victim. The verdict
        // is key recovery alone — a handful of coin guesses landing
        // right is chance, not a broken defense.
        const FaultAttackResult r =
            attack == EvalAttack::kFaultSafeError
                ? safe_error_attack(curve, cm, k, config.bits_to_attack,
                                    config.seed)
                : invalid_point_attack(curve, cm, k, config.bits_to_attack,
                                       config.seed);
        cell.traces = r.shots;
        cell.accuracy = r.accuracy;
        cell.key_recovered = r.key_recovered;
        cell.informative_shots = r.informative_shots;
        cell.defense_holds = !r.key_recovered;
      } else {
        cell.traces = config.traces;
        const DpaResult r = run_recovery(curve, cache, cm, attack,
                                         config.traces, config);
        cell.accuracy = r.accuracy;
        cell.key_recovered = r.full_success;
        // Traces-to-break sweep: the smallest budget in the sweep that
        // recovers every attacked bit (0 = the sweep never broke it).
        for (const std::size_t n : config.break_sweep) {
          const DpaResult rs =
              run_recovery(curve, cache, cm, attack, n, config);
          if (rs.full_success) {
            cell.traces_to_break = n;
            break;
          }
        }
        // The verdict folds in BOTH probes: a defense that fell to the
        // main run or to any sweep budget did not hold — the JSON must
        // never say "holds" and "broken at N traces" in one cell.
        cell.defense_holds =
            !cell.key_recovered && cell.traces_to_break == 0;
      }
      cell.seconds = seconds_since(t0);
      out.cells.push_back(std::move(cell));
    }
  }
  return out;
}

std::string EvalMatrix::to_json() const {
  std::string s = "{\"schema\":\"medsec-eval-matrix-v1\",\"cells\":[";
  bool first = true;
  char buf[224];
  for (const EvalCell& c : cells) {
    if (!first) s.push_back(',');
    first = false;
    s += "{\"attack\":\"";
    append_json_escaped(s, c.attack);
    s += "\",\"countermeasure\":\"";
    append_json_escaped(s, c.countermeasure);
    s += "\",\"lane_backend\":\"";
    append_json_escaped(s, c.lane_backend);
    std::snprintf(buf, sizeof(buf),
                  "\",\"traces\":%zu,\"accuracy\":%.6f,"
                  "\"key_recovered\":%s,\"traces_to_break\":%zu,"
                  "\"tvla_max_t\":%.6f,\"tvla_leaks\":%s,"
                  "\"informative_shots\":%zu,"
                  "\"seconds\":%.3f,\"defense_holds\":%s}",
                  c.traces, c.accuracy, c.key_recovered ? "true" : "false",
                  c.traces_to_break, c.tvla_max_t,
                  c.tvla_leaks ? "true" : "false", c.informative_shots,
                  c.seconds, c.defense_holds ? "true" : "false");
    s += buf;
  }
  s += "]}";
  return s;
}

bool EvalMatrix::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = to_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace medsec::sidechannel
