// inproc_workload.cpp — mixed_inproc: engine::run_sharded_campaign with
// shards = nproc over the four-protocol mix (Schnorr / Peeters–Hermans /
// mutual auth / ECIES), device and gateway halves joined by seeded
// LossyLinks with 10% drop and 2.5% corruption each way. No sockets.
//
// The untraced run (--trace 0) runs campaigns for a discarded host
// warm-up, builds the fixtures kSetups times for setup_s, then runs
// campaigns of kCampaignSessions back to back for the timed window;
// sessions_per_s is the median verdict rate over groups of campaigns
// spanning at least kRateWindowNs, each scaled by the host's steal in it
// (steal_adjusted), and cpu_us_per_session is process CPU over sessions;
// both, and setup_s, at the reference host speed (HostSpeed, probed after
// each window while the campaign runners are idle).
// The campaign call returns every verdict at once, so each session's
// verdict latency is its campaign's wall time; p99 is the median of the
// p99s of kLatencyWindows consecutive slices of the campaigns (both
// reported by the traced run, like the udp workloads' latencies). Every
// campaign must complete and accept every session with no corrupt frame
// accepted; the first timed campaign is run again on one serial shard and
// must reproduce its digest.
//
// The traced run (--trace 1) adds a replica of one campaign built from
// the fixtures kit and the public GatewayServer / DeviceEndpoint /
// LossyLink / SchnorrBatchVerifier, with spans around the uplink and
// downlink handlers, the judges, the verifier flush, device start and
// session open. The replica must reproduce run_sharded_campaign's digest
// for the same seed and session count, so its spans describe the same work.
#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common.h"
#include "engine/campaign_fixtures.h"
#include "engine/shard.h"
#include "layers.h"
#include "protocol/schnorr.h"
#include "protocol/wire.h"

namespace perfbench {

namespace {

namespace ecc = medsec::ecc;
namespace engine = medsec::engine;
namespace protocol = medsec::protocol;
namespace rng = medsec::rng;
namespace campaign = medsec::engine::campaign;
using campaign::mix_seed;

constexpr std::size_t kCampaignSessions = 512;
constexpr std::size_t kLatencyWindows = 5;
/// Throughput is the median of the rates over groups of campaigns at
/// least this long.
constexpr std::int64_t kRateWindowNs = 100'000'000;
constexpr std::size_t kVerifyBatch = 64;
constexpr int kSetups = 25;
/// Sessions in the traced replica (and its untraced serial twin).
constexpr std::size_t kReplicaSessions = 2048;
constexpr std::size_t kKeepFrames = 256;

engine::ShardedCampaignConfig campaign_config(std::uint64_t seed,
                                              std::size_t sessions,
                                              std::size_t shards) {
  engine::ShardedCampaignConfig sc;
  sc.chaos.sessions = sessions;
  sc.chaos.seed = seed;
  sc.chaos.uplink.drop = 0.10;
  sc.chaos.uplink.corrupt = 0.025;
  sc.chaos.downlink.drop = 0.10;
  sc.chaos.downlink.corrupt = 0.025;
  sc.shards = shards;
  sc.verify_batch = kVerifyBatch;
  return sc;
}

/// Every session completed and accepted, nothing stuck, no corrupt frame
/// reached a machine. Returns sessions without their correct verdict.
std::uint64_t check_campaign(const engine::ShardedCampaignResult& res,
                             Result& r) {
  const engine::ChaosCampaignResult& c = res.chaos;
  r.check(c.corrupt_accepted == 0, "campaign corrupt_accepted == 0");
  r.check(c.stuck == 0, "campaign stuck == 0");
  const std::uint64_t bad = c.sessions - std::min(c.sessions, c.accepted);
  r.check(c.completed == c.sessions && bad == 0,
          "campaign completed and accepted every session (" +
              std::to_string(c.accepted) + " of " +
              std::to_string(c.sessions) + ")");
  return bad;
}

/// Median over kLatencyWindows consecutive slices of the campaign walls of
/// each slice's p99: a host stall moves the slices it hits only.
double windowed_p99(const std::vector<double>& wall_us) {
  const std::size_t per = wall_us.size() / kLatencyWindows;
  if (per == 0) return quantile(wall_us, 0.99);
  std::vector<double> p99s;
  for (std::size_t w = 0; w < kLatencyWindows; ++w)
    p99s.push_back(quantile(std::vector<double>(wall_us.begin() + w * per,
                                                wall_us.begin() + (w + 1) * per),
                            0.99));
  return median(p99s);
}

/// Totals the traced replica produced.
struct ReplicaOut {
  std::uint64_t digest = 0;
  std::size_t sessions = 0;
  std::uint64_t accepted = 0;
};

/// One shard world of run_sharded_campaign, rebuilt from public parts with
/// spans around every call into the protocol layer. Mirrors the sharded
/// campaign's world construction (no failover drill: the workload runs
/// none) and its outcome extraction.
std::vector<campaign::SessionOutcome> replica_world(
    const engine::ChaosCampaignConfig& cfg, const campaign::Fixtures& fx,
    const std::vector<std::uint64_t>& gids, LayerOperands& ops) {
  const std::size_t count = gids.size();
  medsec::core::EventQueue q;
  engine::GatewayConfig gcfg;
  gcfg.delivery = cfg.delivery;
  gcfg.session_deadline = cfg.session_deadline;
  gcfg.idle_timeout = cfg.idle_timeout;
  engine::SchnorrBatchVerifier bv(fx.curve, kVerifyBatch,
                                  mix_seed(cfg.seed, 0xB47C));
  std::map<std::uint64_t, bool> verdicts;
  engine::GatewayServer gw(q, mix_seed(cfg.seed, 0x6A7E), gcfg);

  const auto make_judge = [&bv, &verdicts](std::uint64_t gid)
      -> engine::GatewayServer::Judge {
    if (gid % 4 != 0)
      return [gid, inner = campaign::judge_for(gid)](
                 const protocol::SessionMachine& m) {
        Span span(SpanKind::kJudge, gid);
        return inner(m);
      };
    return [&bv, &verdicts, gid](const protocol::SessionMachine& m) {
      Span span(SpanKind::kJudge, gid);
      const auto& sv = static_cast<const protocol::SchnorrVerifier&>(m);
      engine::PendingTranscript t;
      t.session = gid;
      t.X = sv.public_key();
      t.commitment_wire = sv.commitment_wire();
      t.challenge = sv.challenge();
      t.response = sv.response();
      t.on_result = [&verdicts, gid](bool ok) { verdicts[gid] = ok; };
      bv.enqueue(std::move(t));
      return false;
    };
  };

  std::vector<std::unique_ptr<rng::Xoshiro256>> dev_rngs(count);
  std::vector<std::unique_ptr<protocol::SessionMachine>> dev_machines(count);
  std::vector<std::unique_ptr<engine::LossyLink>> links(count);
  std::vector<std::unique_ptr<engine::DeviceEndpoint>> devices(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t gid = gids[i];
    dev_rngs[i] =
        std::make_unique<rng::Xoshiro256>(mix_seed(cfg.seed, gid * 4));
    auto srv_rng =
        std::make_unique<rng::Xoshiro256>(mix_seed(cfg.seed, gid * 4 + 1));
    {
      Span span(SpanKind::kDeviceStart, gid);
      dev_machines[i] = campaign::device_factory(fx, gid)(*dev_rngs[i]);
    }
    links[i] = std::make_unique<engine::LossyLink>(
        q, mix_seed(cfg.seed, gid * 4 + 2), cfg.uplink, cfg.downlink);
    devices[i] = std::make_unique<engine::DeviceEndpoint>(
        q, gid, cfg.seed, *dev_machines[i], cfg.delivery);
    engine::LossyLink* link = links[i].get();
    engine::DeviceEndpoint* dev = devices[i].get();
    dev->set_uplink([link, &ops](std::vector<std::uint8_t> bytes) {
      if (ops.frames.size() < kKeepFrames) ops.frames.push_back(bytes);
      link->send(engine::LossyLink::kUp, std::move(bytes));
    });
    link->set_receiver(engine::LossyLink::kUp,
                       [&gw, gid](std::vector<std::uint8_t> bytes) {
                         Span span(SpanKind::kUplink, gid);
                         gw.on_uplink(gid, std::move(bytes));
                       });
    link->set_receiver(engine::LossyLink::kDown,
                       [dev, gid](std::vector<std::uint8_t> bytes) {
                         Span span(SpanKind::kDownlink, gid);
                         dev->on_downlink(std::move(bytes));
                       });
    {
      Span span(SpanKind::kSessionOpen, gid);
      auto srv_machine = campaign::server_factory(
          fx, gid, /*deferred_schnorr=*/gid % 4 == 0)(*srv_rng);
      gw.open_session(gid, std::move(srv_machine),
                      [link](std::vector<std::uint8_t> bytes) {
                        link->send(engine::LossyLink::kDown,
                                   std::move(bytes));
                      },
                      make_judge(gid), std::move(srv_rng));
    }
    Span span(SpanKind::kDeviceStart, gid);
    dev->start();
  }

  while (q.pending() && q.now() < cfg.max_cycles) q.run_next();
  {
    Span span(SpanKind::kVerifierFlush);
    bv.flush();
  }

  std::vector<campaign::SessionOutcome> out;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t gid = gids[i];
    campaign::SessionOutcome o;
    o.id = gid;
    const engine::GatewaySessionStatus st = gw.status(gid);
    o.completed = devices[i]->done() &&
                  st == engine::GatewaySessionStatus::kCompleted;
    const auto v = verdicts.find(gid);
    o.accepted = o.completed && (gid % 4 == 0
                                     ? v != verdicts.end() && v->second
                                     : gw.accepted(gid));
    o.failed = !o.completed && (devices[i]->failed() ||
                                st != engine::GatewaySessionStatus::kActive);
    if (o.completed)
      o.cycle = std::max(devices[i]->done_at(), gw.settled_at(gid));
    o.retransmits = devices[i]->stats().retransmits;
    if (const engine::DeliveryStats* ds = gw.delivery_stats(gid))
      o.retransmits += ds->retransmits;
    out.push_back(o);
  }
  return out;
}

ReplicaOut run_replica(const engine::ShardedCampaignConfig& sc,
                       LayerOperands& ops) {
  const engine::ChaosCampaignConfig& cfg = sc.chaos;
  const campaign::Fixtures fx = campaign::make_fixtures(cfg.seed);
  std::vector<std::vector<std::uint64_t>> parts(sc.shards);
  for (std::uint64_t gid = 1; gid <= cfg.sessions; ++gid)
    parts[engine::shard_of(gid, sc.shards)].push_back(gid);
  std::vector<campaign::SessionOutcome> all;
  for (const auto& part : parts) {
    auto o = replica_world(cfg, fx, part, ops);
    all.insert(all.end(), o.begin(), o.end());
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  ReplicaOut out;
  out.sessions = all.size();
  out.digest = 0xCBF29CE484222325ULL;
  for (const auto& o : all) {
    out.digest = campaign::digest_outcome(out.digest, o);
    if (o.accepted) ++out.accepted;
  }
  return out;
}

/// Fixture keys, workload scalars and Schnorr transcripts for the
/// per-layer timings.
void fixture_operands(const campaign::Fixtures& fx, std::uint64_t seed,
                      LayerOperands& ops) {
  const ecc::Curve& curve = fx.curve;
  rng::Xoshiro256 r(mix_seed(seed, 0x0FE7));
  for (std::size_t i = 0; i < 128; ++i) {
    const auto s = protocol::run_schnorr_session(curve, fx.schnorr_key, r);
    ops.transcripts.push_back(s.view);
    ops.keys.push_back(fx.schnorr_key.X);
    ops.points.push_back(s.view.commitment);
    ops.point_wires.push_back(protocol::encode_point(curve, s.view.commitment));
    ops.scalars.push_back(s.view.challenge);
    ops.scalars.push_back(s.view.response);
  }
  ops.points.push_back(fx.schnorr_key.X);
  ops.points.push_back(fx.ecies_key.Y);
}

}  // namespace

Result run_mixed_inproc(const RunOptions& opt) {
  Result r;
  const std::size_t shards = hardware_threads();
  std::printf("host: %s\n",
              host_record("campaign shards " + std::to_string(shards) +
                          " on the shared pool (" + std::to_string(shards) +
                          " runners incl. caller)")
                  .c_str());

  const double window_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::uint64_t index = 0;
  const auto next_config = [&] {
    return campaign_config(mix_seed(opt.seed, ++index), kCampaignSessions,
                           shards);
  };

  // --- host warm-up, discarded.
  const std::int64_t warm_end =
      now_ns() + static_cast<std::int64_t>(kHostWarmupS * 1e9);
  while (now_ns() < warm_end) {
    const auto res = engine::run_sharded_campaign(next_config());
    r.attempted += res.chaos.sessions;
    r.failed += check_campaign(res, r);
  }

  // --- setup: the campaign fixtures (curve, fleet credentials, ciphers).
  std::vector<double> setup;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    const campaign::Fixtures fx =
        campaign::make_fixtures(mix_seed(opt.seed, 0x5E7 + i));
    setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // --- timed campaigns.
  std::vector<double> wall_us, rates;
  std::uint64_t sessions = 0, retransmits = 0, decode_failures = 0;
  engine::BatchVerifierStats vs;
  engine::ShardedCampaignConfig first;
  std::uint64_t first_digest = 0;
  const std::uint64_t cs0 = context_switches();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t start = now_ns();
  std::int64_t window_t = start;
  std::uint64_t window_sessions = 0;
  CpuTicks window_ticks = read_cpu_ticks();
  HostSpeed host;
  const std::int64_t end =
      start + static_cast<std::int64_t>((window_s - kHostWarmupS) * 1e9);
  std::int64_t t = start;
  while (t < end || wall_us.empty()) {
    const engine::ShardedCampaignConfig sc = next_config();
    const std::int64_t c0 = now_ns();
    const auto res = engine::run_sharded_campaign(sc);
    t = now_ns();
    wall_us.push_back(static_cast<double>(t - c0) * 1e-3);
    window_sessions += res.chaos.sessions;
    if (t - window_t >= kRateWindowNs) {
      host.sample(1);
      const CpuTicks ticks = read_cpu_ticks();
      rates.push_back(steal_adjusted(
          static_cast<double>(window_sessions) * 1e9 /
              static_cast<double>(t - window_t),
          steal_share(window_ticks, ticks)));
      window_t = t;
      window_sessions = 0;
      window_ticks = ticks;
    }
    if (wall_us.size() == 1) {
      first = sc;
      first_digest = res.chaos.digest;
    }
    sessions += res.chaos.sessions;
    retransmits += res.chaos.retransmits;
    decode_failures += res.chaos.decode_failures;
    vs.items += res.verifier.items;
    vs.batches += res.verifier.batches;
    vs.rlc_failures += res.verifier.rlc_failures;
    vs.single_fallbacks += res.verifier.single_fallbacks;
    r.attempted += res.chaos.sessions;
    r.failed += check_campaign(res, r);
  }
  const double timed_s = static_cast<double>(t - start) * 1e-9;
  const double cpu_us =
      static_cast<double>(process_cpu_ns() - cpu0) * 1e-3;
  const std::uint64_t cs = context_switches() - cs0;
  // peak_mem_mb: process peak RSS. Unlike udp_*, this workload's resident
  // set is small and lands on the same figure run after run.
  const double rss = peak_rss_mb();
  // Median over windows: steadier than the whole-phase mean when the host
  // stalls the VM for a while.
  const double sps = rates.empty() ? ratio(static_cast<double>(sessions),
                                           timed_s)
                                   : median(rates);

  // --- determinism: the same campaign on one serial shard.
  engine::ShardedCampaignConfig serial = first;
  serial.shards = 1;
  serial.parallel = false;
  r.check(engine::run_sharded_campaign(serial).chaos.digest == first_digest,
          "campaign digest identical on 1 serial shard and " +
              std::to_string(shards) + " parallel shards");

  if (rates.empty()) host.sample();
  std::printf("mixed_inproc: %zu campaigns x %zu sessions in %.2f s, "
              "%.0f sessions/s (median of %zu steal-adjusted windows), "
              "failed_frac %.6f\n",
              wall_us.size(), kCampaignSessions, timed_s, sps, rates.size(),
              ratio(static_cast<double>(r.failed),
                    static_cast<double>(r.attempted)));
  std::printf("host: speed probe %.4f ns (reference %.2f ns): timings scaled "
              "by %.4f\n",
              host.probe_ns(), kReferenceProbeNs, host.speed());

  if (!opt.trace) {
    const double speed = host.speed();
    r.add("sessions_per_s", sps / speed, "1/s");
    r.add("cpu_us_per_session",
          ratio(cpu_us, static_cast<double>(sessions)) * speed, "us");
    r.add("setup_s", median(setup) * speed, "s");
    r.add("peak_mem_mb", rss, "MB");
    return r;
  }

  // --- traced: serial untraced campaign vs its traced replica.
  const engine::ShardedCampaignConfig rc = campaign_config(
      mix_seed(opt.seed, 0x7EA1), kReplicaSessions, shards);
  engine::ShardedCampaignConfig rc_serial = rc;
  rc_serial.parallel = false;
  std::int64_t t0 = now_ns();
  const auto untraced = engine::run_sharded_campaign(rc_serial);
  const double untraced_s = static_cast<double>(now_ns() - t0) * 1e-9;
  r.attempted += untraced.chaos.sessions;
  r.failed += check_campaign(untraced, r);

  LayerOperands ops;
  SpanLog log;
  ReplicaOut rep;
  t0 = now_ns();
  {
    const SpanScope scope(&log);
    rep = run_replica(rc, ops);
  }
  const double traced_s = static_cast<double>(now_ns() - t0) * 1e-9;
  r.check(rep.digest == untraced.chaos.digest,
          "traced replica reproduces run_sharded_campaign's digest");
  r.check(rep.accepted == rep.sessions, "replica accepted every session");

  const std::vector<const SpanLog*> logs = {&log};
  const char* groups[] = {"protocol.schnorr_us_per_session",
                          "protocol.ph_us_per_session",
                          "protocol.mutual_auth_us_per_session",
                          "protocol.ecies_us_per_session"};
  double attributed_ns = 0;
  for (std::uint64_t g = 0; g < 4; ++g) {
    // Top-level spans only: judges nest inside the uplink handler.
    const auto totals = span_totals(logs, [g](const SpanRec& s) {
      return s.parent == 0 && s.session != 0 && s.session % 4 == g;
    });
    double ns = 0;
    for (const SpanTotals& k : totals) ns += k.total_ns;
    if (g == 0) ns += at(span_totals(logs), SpanKind::kVerifierFlush).total_ns;
    attributed_ns += ns;
    // gids run 1..sessions, so group g holds this many of them.
    const std::size_t n = (rc.chaos.sessions + (g == 0 ? 0 : 4 - g)) / 4;
    r.add(groups[g], ns * 1e-3 / static_cast<double>(n), "us");
  }
  const auto all = span_totals(logs);
  std::printf("trace: replica %zu sessions, %.3f s traced vs %.3f s "
              "untraced serial, protocol spans cover %.1f%% of it\n",
              rep.sessions, traced_s, untraced_s,
              100.0 * ratio(attributed_ns, traced_s * 1e9));
  print_spans(all);

  const auto n = static_cast<double>(sessions);
  r.add("verdict_p50_us", median(wall_us), "us");
  r.add("verdict_p99_us", windowed_p99(wall_us), "us");
  r.add("verifier.batch_size_mean",
        ratio(static_cast<double>(vs.items), static_cast<double>(vs.batches)),
        "count");
  r.add("verifier.rlc_fail_frac",
        ratio(static_cast<double>(vs.rlc_failures),
              static_cast<double>(vs.batches)),
        "ratio");
  r.add("verifier.fallbacks_per_session",
        ratio(static_cast<double>(vs.single_fallbacks), n), "count");
  r.add("gateway.open_us",
        ratio(at(all, SpanKind::kSessionOpen).total_ns * 1e-3,
              static_cast<double>(at(all, SpanKind::kSessionOpen).count)),
        "us");
  r.add("delivery.retransmits_per_session",
        ratio(static_cast<double>(retransmits), n), "count");
  r.add("delivery.decode_failures_per_session",
        ratio(static_cast<double>(decode_failures), n), "count");

  const campaign::Fixtures fx = campaign::make_fixtures(rc.chaos.seed);
  fixture_operands(fx, opt.seed, ops);
  add_layer_metrics(fx.curve, ops, opt.seed, r);

  r.add("proc.ctx_switches_per_session",
        ratio(static_cast<double>(cs), n), "count");
  r.add("trace.overhead_frac", 1.0 - untraced_s / traced_s, "ratio");
  return r;
}

}  // namespace perfbench
