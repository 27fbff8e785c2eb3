#include "engine/shard.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <random>
#include <utility>

#include "core/thread_pool.h"
#include "engine/campaign_fixtures.h"
#include "engine/transport.h"

namespace medsec::engine {

using campaign::mix_seed;

namespace {

/// One word of process entropy, drawn once. The batch verifier's 2^-64
/// bound holds only if its RLC coefficients are drawn after — and
/// unpredictably to — whoever produced the transcripts; from
/// config.seed alone they would be a public function of the source, and
/// a device could forge two transcripts whose errors cancel in the
/// combination.
std::uint64_t rlc_entropy() {
  static const std::uint64_t word = [] {
    // seed-audit: allow(RLC coefficients must be unpredictable to devices)
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) | rd();
  }();
  return word;
}

}  // namespace

// --- ShardEngine -------------------------------------------------------------

ShardEngine::ShardEngine(std::size_t index, const ShardFleetConfig& config,
                         const ecc::Curve& curve, SessionFactory factory,
                         std::size_t producers)
    : index_(index),
      config_(config),
      curve_(&curve),
      factory_(std::move(factory)),
      gateway_(make_gateway()),
      verifier_(curve, config.verify_batch == 0 ? 1 : config.verify_batch,
                mix_seed(config.seed ^ rlc_entropy(), 0xB47C + index)),
      mailbox_(producers, config.mailbox_capacity) {}

bool ShardEngine::offer(std::size_t lane, IngressItem&& item) {
  // try_push moves only on success, so a shed item is still intact for the
  // caller's reject reply.
  if (mailbox_.try_push(lane, std::move(item))) return true;
  mailbox_shed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

std::unique_ptr<GatewayServer> ShardEngine::make_gateway() {
  // Not mixed with the shard index: a session's server-side retransmit
  // jitter must not depend on which shard hosts it.
  return std::make_unique<GatewayServer>(
      queue_, mix_seed(config_.seed, 0x6A7E), config_.gateway);
}

std::size_t ShardEngine::drain_mailbox(std::size_t limit) {
  return mailbox_.drain(
      [this](IngressItem&& item) { ingest(std::move(item)); }, limit);
}

void ShardEngine::ingest(IngressItem&& item) {
  ingress_.fetch_add(1, std::memory_order_relaxed);
  if (!gateway_->has_session(item.session)) {
    // A session opens on its device's first message, nothing less: a
    // header that merely looks like a frame would otherwise make the
    // factory build a machine and an rng for bytes that fail the CRC.
    const std::optional<Frame> f = decode_frame(item.bytes);
    if (!f || f->type != FrameType::kData) {
      stray_dropped_.fetch_add(1, std::memory_order_relaxed);
      FramePool::release(std::move(item.bytes));
      return;
    }
    open(item.session, item.peer);
  } else if (item.peer.valid()) {
    peers_[item.session] = item.peer;  // the latest return address
  }
  gateway_->on_uplink(item.session, std::move(item.bytes));
}

void ShardEngine::record_verdict(std::uint64_t id, bool accepted) {
  Record& r = records_[id];
  r.completed = true;
  r.accepted = accepted;
  r.settled = queue_.now();
  completed_.fetch_add(1, std::memory_order_relaxed);
  (accepted ? accepted_ : rejected_)
      .fetch_add(1, std::memory_order_relaxed);
}

void ShardEngine::send(std::uint64_t id, std::vector<std::uint8_t> bytes) {
  if (transport_ == nullptr) return;
  const auto p = peers_.find(id);
  if (p != peers_.end())
    transport_->send_downlink(id, p->second, std::move(bytes));
}

GatewayServer::Downlink ShardEngine::downlink(std::uint64_t id) {
  return [this, id](std::vector<std::uint8_t> bytes) {
    send(id, std::move(bytes));
  };
}

std::function<void(bool)> ShardEngine::land(std::uint64_t id) {
  // gateway_ is read when the verdict lands, so after a failover it lands
  // on the restored session.
  return [this, id](bool ok) {
    record_verdict(id, ok);
    gateway_->land_verdict(id, ok);
  };
}

GatewayServer::Judge ShardEngine::judge(std::uint64_t id) {
  // A deferred machine finishes the exchange without deciding; its check
  // goes to this shard's queue, and the verdict lands through land(id) —
  // possibly inside this very call, when the check fills the batch. The
  // judge answers "not yet". Any other machine's verdict is its own.
  return [this, id](const protocol::SessionMachine& m) {
    if (std::optional<protocol::DeferredWork> work = m.deferred()) {
      verifier_.enqueue(DeferredCheck{std::move(*work), land(id)});
      return false;
    }
    const bool ok = m.accepted();
    record_verdict(id, ok);
    return ok;
  };
}

void ShardEngine::open(std::uint64_t id, const Peer& peer) {
  // The return address first: a refusal or a shed replies at once.
  if (peer.valid()) peers_[id] = peer;
  SessionSetup setup = factory_(id);
  if (!setup.machine) {
    // Refused (unknown or quarantined device): an explicit verdict, as
    // for a shed, so the device fails fast instead of retransmitting into
    // silence.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    Frame reject;
    reject.type = FrameType::kReject;
    reject.session = id;
    send(id, encode_frame(reject));
    return;
  }
  if (gateway_->open_session(id, std::move(setup.machine), downlink(id),
                             judge(id), std::move(setup.rng)))
    opened_.fetch_add(1, std::memory_order_relaxed);
  else
    rejected_.fetch_add(1, std::memory_order_relaxed);
}

GatewayStats ShardEngine::failover() {
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> snaps;
  for (const std::uint64_t id : gateway_->session_ids())
    snaps.emplace_back(id, gateway_->snapshot_session(id));
  const GatewayStats dead = gateway_->stats();
  gateway_ = make_gateway();
  for (auto& [id, snap] : snaps) {
    SessionSetup setup = factory_(id);
    // Refused now (say, its device was quarantined meanwhile): the
    // session dies with the node, and its next datagram meets the refusal.
    if (!setup.machine) continue;
    gateway_->restore_session(id, std::move(setup.machine), downlink(id),
                              snap, judge(id), std::move(setup.rng));
  }
  return dead;
}

void ShardEngine::flush_verifier() {
  if (verifier_.pending() == 0) return;
  verifier_.flush();
  verifier_flushes_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t ShardEngine::tick(core::Cycle virtual_now) {
  ticks_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t drained = drain_mailbox(config_.drain_chunk);
  advance_to(std::max(virtual_now, queue_.now()));
  flush_verifier();
  return drained;
}

ShardStats ShardEngine::stats() const {
  ShardStats s;
  s.ingress = ingress_.load(std::memory_order_relaxed);
  s.mailbox_shed = mailbox_shed_.load(std::memory_order_relaxed);
  s.stray_dropped = stray_dropped_.load(std::memory_order_relaxed);
  s.opened = opened_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.verifier_flushes = verifier_flushes_.load(std::memory_order_relaxed);
  s.ticks = ticks_.load(std::memory_order_relaxed);
  return s;
}

// --- ShardFleet --------------------------------------------------------------

ShardFleet::ShardFleet(const ecc::Curve& curve,
                       const ShardFleetConfig& config,
                       SessionFactory factory, std::size_t producers)
    : config_(config) {
  const std::size_t n = config.shards == 0 ? 1 : config.shards;
  engines_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    engines_.push_back(std::make_unique<ShardEngine>(i, config_, curve,
                                                     factory, producers));
}

ShardFleet::~ShardFleet() {
  if (running()) stop(/*force=*/true);
}

bool ShardFleet::offer(std::size_t lane, IngressItem&& item) {
  return engines_[shard_index(item.session)]->offer(lane, std::move(item));
}

void ShardFleet::start(Transport& transport) {
  if (running()) return;
  stop_.store(false, std::memory_order_release);
  force_stop_.store(false, std::memory_order_release);
  for (auto& e : engines_) e->set_transport(&transport);
  loops_running_.store(engines_.size(), std::memory_order_release);
  threads_.reserve(engines_.size());
  for (auto& e : engines_) {
    ShardEngine* eng = e.get();
    threads_.emplace_back([this, eng] {
      const auto t0 = std::chrono::steady_clock::now();
      while (true) {
        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        const auto vnow = static_cast<core::Cycle>(
            static_cast<double>(us) * config_.cycles_per_us);
        const std::size_t drained = eng->tick(vnow);
        if (stop_.load(std::memory_order_acquire) &&
            (force_stop_.load(std::memory_order_acquire) ||
             eng->quiescent()))
          break;
        // Idle tick: nothing arrived. Sleep briefly instead of spinning —
        // retransmit timers are paced in tens of milliseconds, so a 50µs
        // nap costs nothing.
        if (drained == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      loops_running_.fetch_sub(1, std::memory_order_release);
    });
  }
}

void ShardFleet::stop(bool force) {
  if (!running()) return;
  force_stop_.store(force, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  stop_.store(false, std::memory_order_release);
  force_stop_.store(false, std::memory_order_release);
}

DrainReport ShardFleet::drain_for(std::chrono::milliseconds budget) {
  DrainReport report;
  report.quiescent = true;
  if (running()) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    stop_.store(true, std::memory_order_release);
    while (loops_running_.load(std::memory_order_acquire) != 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    report.quiescent = loops_running_.load(std::memory_order_acquire) == 0;
    stop(/*force=*/true);
  }
  // The loops are joined: every gateway is safe to read from here.
  for (const auto& e : engines_)
    for (const std::uint64_t id : e->gateway().session_ids())
      if (e->gateway().status(id) == GatewaySessionStatus::kActive)
        report.stragglers.push_back(id);
  std::sort(report.stragglers.begin(), report.stragglers.end());
  return report;
}

ShardStats ShardFleet::totals() const {
  ShardStats sum;
  for (const auto& e : engines_) sum += e->stats();
  return sum;
}


// --- deterministic sharded campaign ------------------------------------------

namespace {

using campaign::Fixtures;
using campaign::SessionOutcome;

struct WorldResult {
  std::vector<SessionOutcome> outcomes;
  GatewayStats gateway;
  LinkStats link;          ///< both directions, all sessions
  DeliveryStats delivery;  ///< device and gateway endpoints
  BatchVerifierStats verifier;
};

/// Downlinks onto each session's own LossyLink. The world hands every
/// session a peer whose ip is its index into `links` — the opaque cookie a
/// Peer may be for an in-process transport.
struct LinkTransport final : Transport {
  std::vector<std::unique_ptr<LossyLink>> links;
  void send_downlink(std::uint64_t, const Peer& peer,
                     std::vector<std::uint8_t> bytes) override {
    links[peer.ip]->send(LossyLink::kDown, std::move(bytes));
  }
};

/// One shard's virtual world: a ShardEngine serving an arbitrary gid set
/// (the hash partition) for devices on seeded links, the failover drill,
/// and outcome extraction. Every Schnorr, PH and ECIES server runs in
/// deferred mode: Schnorr verdicts through the engine's batch verifier,
/// the PH reader's and ECIES receiver's key multiplications through its
/// lane batch. Deferred mode emits identical wire traffic, consumes
/// identical rng (the challenge draw) and settles the gateway session at
/// the same virtual cycle; the batch verifier is verdict-equivalent
/// (honest transcripts always pass; a failing batch is bisected down to
/// single verdicts) and the lane batch computes the inline ladder's x bit
/// for bit. So on honest sessions every per-session outcome — and
/// therefore the campaign digest — is the inline path's. (A refused ECIES
/// blob would differ: deferred, it lands completed and not accepted
/// instead of failed.)
WorldResult run_world(const ChaosCampaignConfig& cfg, const Fixtures& fx,
                      const std::vector<std::uint64_t>& gids,
                      std::size_t verify_batch) {
  const std::size_t count = gids.size();
  ShardFleetConfig scfg;
  scfg.seed = cfg.seed;
  scfg.verify_batch = verify_batch;
  scfg.mailbox_capacity = 1;  // never queued into: ingest() is called
  scfg.gateway.delivery = cfg.delivery;
  scfg.gateway.session_deadline = cfg.session_deadline;
  scfg.gateway.idle_timeout = cfg.idle_timeout;
  LinkTransport transport;
  ShardEngine shard(
      0, scfg, fx.curve,
      [&cfg, &fx](std::uint64_t gid) {
        SessionSetup s;
        s.rng = std::make_unique<rng::Xoshiro256>(
            mix_seed(cfg.seed, gid * 4 + 1));
        s.machine =
            campaign::server_factory(fx, gid, /*deferred=*/true)(*s.rng);
        return s;
      },
      /*producers=*/1);
  shard.set_transport(&transport);
  core::EventQueue& queue = shard.queue();

  // Declared after the shard: device endpoints cancel their timers on its
  // queue when they die.
  std::vector<std::unique_ptr<rng::Xoshiro256>> dev_rngs(count);
  std::vector<std::unique_ptr<protocol::SessionMachine>> dev_machines(count);
  std::vector<std::unique_ptr<DeviceEndpoint>> devices(count);
  transport.links.resize(count);

  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t gid = gids[i];
    const Peer peer{static_cast<std::uint32_t>(i), 1};
    dev_rngs[i] =
        std::make_unique<rng::Xoshiro256>(mix_seed(cfg.seed, gid * 4));
    dev_machines[i] = campaign::device_factory(fx, gid)(*dev_rngs[i]);
    transport.links[i] = std::make_unique<LossyLink>(
        queue, mix_seed(cfg.seed, gid * 4 + 2), cfg.uplink, cfg.downlink);
    devices[i] = std::make_unique<DeviceEndpoint>(queue, gid, cfg.seed,
                                                  *dev_machines[i],
                                                  cfg.delivery);
    LossyLink* link = transport.links[i].get();
    DeviceEndpoint* dev = devices[i].get();
    dev->set_uplink([link](std::vector<std::uint8_t> bytes) {
      link->send(LossyLink::kUp, std::move(bytes));
    });
    link->set_receiver(LossyLink::kUp,
                       [&shard, gid, peer](std::vector<std::uint8_t> bytes) {
                         shard.ingest(IngressItem{gid, peer, std::move(bytes)});
                       });
    link->set_receiver(LossyLink::kDown,
                       [dev](std::vector<std::uint8_t> bytes) {
                         dev->on_downlink(std::move(bytes));
                       });
    shard.open(gid, peer);
    dev->start();
  }

  WorldResult out;
  if (cfg.failover_at != 0) {
    shard.advance_to(cfg.failover_at);
    out.gateway = shard.failover();
  }
  while (queue.pending() && queue.now() < cfg.max_cycles) queue.run_next();
  shard.flush_verifier();  // land every still-queued deferred verdict

  const GatewayServer& gw = shard.gateway();
  out.gateway += gw.stats();
  out.verifier = shard.verifier().stats();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t gid = gids[i];
    const DeviceEndpoint& dev = *devices[i];
    SessionOutcome o;
    o.id = gid;
    const GatewaySessionStatus st = gw.status(gid);
    o.completed = dev.done() && st == GatewaySessionStatus::kCompleted;
    o.accepted = o.completed && gw.accepted(gid);
    o.failed =
        !o.completed && (dev.failed() || st != GatewaySessionStatus::kActive);
    if (o.completed) o.cycle = std::max(dev.done_at(), gw.settled_at(gid));
    o.retransmits = dev.stats().retransmits;
    out.delivery += dev.stats();
    if (const DeliveryStats* ds = gw.delivery_stats(gid)) {
      o.retransmits += ds->retransmits;
      out.delivery += *ds;
    }
    out.link += transport.links[i]->stats(LossyLink::kUp);
    out.link += transport.links[i]->stats(LossyLink::kDown);
    out.outcomes.push_back(o);
  }
  return out;
}

}  // namespace

ShardedCampaignResult run_sharded_campaign(
    const ShardedCampaignConfig& config) {
  ShardedCampaignConfig scfg = config;
  if (scfg.shards == 0) scfg.shards = 1;
  if (scfg.verify_batch == 0) scfg.verify_batch = 1;
  const ChaosCampaignConfig& cfg = scfg.chaos;
  const Fixtures fx = campaign::make_fixtures(cfg.seed);

  std::vector<std::vector<std::uint64_t>> parts(scfg.shards);
  for (std::size_t gid = 1; gid <= cfg.sessions; ++gid)
    parts[shard_of(gid, scfg.shards)].push_back(gid);

  std::vector<WorldResult> results(scfg.shards);
  const auto work = [&](std::size_t b, std::size_t e) {
    for (std::size_t s = b; s < e; ++s)
      results[s] = run_world(cfg, fx, parts[s], scfg.verify_batch);
  };
  if (scfg.parallel && scfg.shards > 1)
    core::ThreadPool::shared().parallel_for(scfg.shards, 1, work);
  else
    work(0, scfg.shards);

  ShardedCampaignResult out;
  out.shards = scfg.shards;
  ChaosCampaignResult& c = out.chaos;
  c.sessions = cfg.sessions;
  LinkStats link;
  DeliveryStats delivery;
  std::vector<SessionOutcome> outcomes;
  outcomes.reserve(cfg.sessions);
  for (const WorldResult& r : results) {
    c.gateway += r.gateway;
    link += r.link;
    delivery += r.delivery;
    out.verifier += r.verifier;
    outcomes.insert(outcomes.end(), r.outcomes.begin(), r.outcomes.end());
  }
  c.frames_sent = link.sent;
  c.frames_dropped = link.dropped;
  c.frames_corrupted = link.corrupted;
  c.frames_duplicated = link.duplicated;
  c.frames_reordered = link.reordered;
  c.retransmits = delivery.retransmits;
  c.decode_failures = delivery.decode_failures;
  c.dup_suppressed = delivery.dup_suppressed;
  // Every corrupted delivery must surface as a decode failure; any gap
  // means a mangled frame got past the CRC into a machine.
  c.corrupt_accepted = link.corrupted_delivered > delivery.decode_failures
                           ? link.corrupted_delivered - delivery.decode_failures
                           : 0;

  // The hash partition scatters gids across shards; the digest folds in
  // GLOBAL session order, so it is the same at any shard count.
  std::sort(outcomes.begin(), outcomes.end(),
            [](const SessionOutcome& a, const SessionOutcome& b) {
              return a.id < b.id;
            });
  std::vector<core::Cycle> latencies;
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (const SessionOutcome& o : outcomes) {
    if (o.completed) {
      ++c.completed;
      latencies.push_back(o.cycle);
    }
    if (o.accepted) ++c.accepted;
    if (o.failed) ++c.failed;
    if (!o.completed && !o.failed) ++c.stuck;
    digest = campaign::digest_outcome(digest, o);
  }
  c.digest = digest;
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    c.latency_p50 = latencies[latencies.size() / 2];
    c.latency_p99 = latencies[std::min(latencies.size() - 1,
                                       latencies.size() * 99 / 100)];
    c.latency_max = latencies.back();
  }
  return out;
}

}  // namespace medsec::engine
