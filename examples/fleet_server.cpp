// fleet_server — the serving stack end to end, in process: a mini-server
// authenticating a fleet of implanted tags on N shard event loops, with
// device enrollment in a DeviceRegistry, batched transcript verification
// on every shard, and the tags' own energy ledgers summed at the end.
//
//   usage: fleet_server [devices] [sessions] [shards] [batch]
//          (defaults: 32 devices, 512 sessions, 4 shards, batch 64)
//
// Every session is a full message-driven Schnorr identification run over
// the framed ARQ channel: each tag (a SchnorrProver behind a
// DeviceEndpoint) offers its frames into its shard's mailbox, and the
// shard's downlinks come straight back through an in-process Transport.
// Session s belongs to device (s - 1) % devices. Two sessions are
// impersonators holding keys the registry never enrolled; the batch
// verifier's fallback isolates exactly those.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "core/event_queue.h"
#include "ecc/curve.h"
#include "engine/device_registry.h"
#include "engine/gateway.h"
#include "engine/shard.h"
#include "gf2m/backend.h"
#include "hw/radio.h"
#include "protocol/schnorr.h"
#include "rng/xoshiro.h"

using namespace medsec;
namespace proto = protocol;

namespace {

/// One implanted tag: its prover machine behind a reliable endpoint. The
/// tag's own EventQueue is never advanced: the in-process loop loses
/// nothing, so no tag retransmit ever comes due.
struct Tag {
  explicit Tag(std::uint64_t seed) : rng(seed) {}
  rng::Xoshiro256 rng;
  std::unique_ptr<proto::SchnorrProver> prover;
  core::EventQueue queue;
  std::unique_ptr<engine::DeviceEndpoint> endpoint;
  /// Mailbox lane for this tag's uplinks: 0 (the main thread) for the
  /// opening commitment, then its shard's own lane — after the loops
  /// start, a tag is only ever touched by the loop thread of its shard.
  std::size_t lane = 0;
};

/// Downlinks go straight back into the tag of their session.
struct Loopback final : engine::Transport {
  std::map<std::uint64_t, std::unique_ptr<Tag>> tags;
  void send_downlink(std::uint64_t session, const engine::Peer&,
                     std::vector<std::uint8_t> bytes) override {
    tags.at(session)->endpoint->on_downlink(std::move(bytes));
  }
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n_devices = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 32;
  const std::size_t n_sessions = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 512;
  const std::size_t n_shards = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 4;
  const std::size_t batch = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 64;
  if (n_devices == 0 || n_shards == 0) {
    std::fprintf(stderr, "fleet_server: devices and shards must be > 0\n");
    return 2;
  }

  const ecc::Curve& c = ecc::Curve::k163();
  std::printf("fleet_server: %zu devices, %zu sessions, %zu shards, "
              "verify batch %zu, gf2m backend %s\n",
              n_devices, n_sessions, n_shards, batch,
              gf2m::backend_name(gf2m::active_backend()));

  rng::Xoshiro256 rng(1);
  std::vector<proto::SchnorrKeyPair> keys;
  engine::DeviceRegistry registry(c);
  for (std::size_t d = 0; d < n_devices; ++d) {
    keys.push_back(proto::schnorr_keygen(c, rng));
    registry.enroll(keys.back().X);
  }
  const auto device_of = [n_devices](std::uint64_t sid) {
    return static_cast<std::uint32_t>((sid - 1) % n_devices);
  };

  // A known challenge lets a keyless tag forge R = s·P − e·X, so the
  // server's per-session challenge seeds start from process entropy.
  // seed-audit: allow(live challenges must be unpredictable to the tags)
  std::random_device entropy;
  const std::uint64_t challenge_seed =
      (static_cast<std::uint64_t>(entropy()) << 32) | entropy();
  engine::SessionFactory factory = [&c, &registry, device_of,
                                    challenge_seed](std::uint64_t sid) {
    engine::SessionSetup s;
    const auto key = registry.admit(device_of(sid));
    if (!key) return s;  // unknown or quarantined: the shard sends kReject
    auto r = std::make_unique<rng::Xoshiro256>(challenge_seed ^ sid);
    s.machine = std::make_unique<proto::SchnorrVerifier>(
        c, *key, *r, proto::SchnorrVerifier::Mode::kDeferred);
    s.deferred_schnorr = true;
    s.rng = std::move(r);
    return s;
  };

  engine::ShardFleetConfig cfg;
  cfg.shards = n_shards;
  cfg.verify_batch = batch;
  // Every opening commitment is queued before the loops start, and a
  // shard's own lane holds at most a response and an ack per session.
  cfg.mailbox_capacity = 2 * n_sessions + 16;
  // 1 cycle = 1 µs: a lossless loop never needs a retransmit.
  cfg.gateway.delivery.rto_initial = 1'000'000;
  cfg.gateway.delivery.rto_max = 4'000'000;

  Loopback loop;
  engine::ShardFleet fleet(c, cfg, factory, /*producers=*/1 + n_shards);

  // Launch the fleet; sessions 8 and n-2 are impersonators.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<bool> forged(n_sessions + 1, false);
  std::size_t n_forged = 0;
  for (std::uint64_t sid = 1; sid <= n_sessions; ++sid) {
    const bool impostor =
        n_sessions > 8 && (sid == 8 || sid == n_sessions - 2);
    auto tag = std::make_unique<Tag>(500 + sid);
    tag->prover = std::make_unique<proto::SchnorrProver>(
        c, impostor ? proto::schnorr_keygen(c, rng) : keys[device_of(sid)],
        tag->rng);
    tag->endpoint = std::make_unique<engine::DeviceEndpoint>(
        tag->queue, sid, sid, *tag->prover);
    Tag* t = tag.get();
    tag->endpoint->set_uplink([&fleet, t, sid](
                                  std::vector<std::uint8_t> bytes) {
      engine::IngressItem item;
      item.session = sid;
      item.peer = engine::Peer{0, 1};
      item.bytes = std::move(bytes);
      fleet.offer(t->lane, std::move(item));  // a shed counts in totals()
    });
    loop.tags.emplace(sid, std::move(tag));
    t->endpoint->start();
    t->lane = 1 + fleet.shard_index(sid);
    forged[sid] = impostor;
    n_forged += impostor ? 1 : 0;
  }
  fleet.start(loop);
  const engine::DrainReport drained = fleet.drain_for(std::chrono::seconds(60));
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // The loops are stopped: every shard is safe to read from here.
  const engine::ShardStats st = fleet.totals();
  engine::BatchVerifierStats vs;
  std::size_t verdict_mismatches = 0;
  for (std::size_t s = 0; s < fleet.shards(); ++s) {
    vs += fleet.shard(s).verifier().stats();
    for (const auto& [sid, rec] : fleet.shard(s).records())
      if (rec.accepted == forged[sid]) ++verdict_mismatches;
  }

  std::printf("\ncompleted %llu sessions in %.3f s  ->  %.0f sessions/s\n",
              static_cast<unsigned long long>(st.completed), secs,
              static_cast<double>(st.completed) / secs);
  std::printf("accepted %llu, rejected %llu (expected rejects: %zu)\n",
              static_cast<unsigned long long>(st.accepted),
              static_cast<unsigned long long>(st.rejected), n_forged);
  std::printf("verifier: %zu batches over %zu items "
              "(%.1f items/batch), %zu decode failures, "
              "%zu RLC fallbacks re-checking %zu transcripts\n",
              vs.batches, vs.items,
              vs.batches ? static_cast<double>(vs.items) /
                               static_cast<double>(vs.batches)
                         : 0.0,
              vs.decode_failures, vs.rlc_failures, vs.single_fallbacks);
  std::printf("drain: %s, %zu stragglers, %llu mailbox sheds\n",
              drained.quiescent ? "quiescent" : "forced",
              drained.stragglers.size(),
              static_cast<unsigned long long>(st.mailbox_shed));

  // Tag-side energy, summed over the fleet's own ledgers (§4's
  // per-session accounting at fleet scale).
  proto::EnergyLedger fleet_energy;
  for (const auto& [sid, tag] : loop.tags) fleet_energy += tag->prover->ledger();
  const proto::TagCostModel cost;
  const auto radio_model = hw::RadioModel::ban();
  const double fleet_j = cost.session_energy_j(fleet_energy, radio_model, 0.5);
  std::printf("fleet tag-side energy: %zu ECPM, %zu modmul, %zu TX bits "
              "->  %.1f uJ total (%.2f uJ/session at 0.5 m BAN)\n",
              fleet_energy.ecpm, fleet_energy.modmul, fleet_energy.tx_bits,
              fleet_j * 1e6,
              fleet_j * 1e6 / static_cast<double>(n_sessions));

  // Spot-check one session from both ends.
  if (n_sessions > 0) {
    const std::uint64_t sid = 1;
    const auto& rec = fleet.shard(fleet.shard_index(sid)).records().at(sid);
    const engine::DeliveryStats& ds = loop.tags.at(sid)->endpoint->stats();
    std::printf("session %llu: device %u, shard %zu, accepted %d, tag sent "
                "%llu data + %llu ack frames\n",
                static_cast<unsigned long long>(sid), device_of(sid),
                fleet.shard_index(sid), rec.accepted ? 1 : 0,
                static_cast<unsigned long long>(ds.data_sent),
                static_cast<unsigned long long>(ds.acks_sent));
  }

  const bool ok = drained.quiescent && drained.stragglers.empty() &&
                  st.mailbox_shed == 0 && st.completed == n_sessions &&
                  st.rejected == n_forged && verdict_mismatches == 0;
  std::printf("%s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
