#include "engine/fault_drill.h"

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/thread_pool.h"
#include "ecc/scalar_mult.h"
#include "engine/campaign_fixtures.h"
#include "engine/device_registry.h"
#include "hw/fault_injector.h"
#include "rng/xoshiro.h"
#include "sidechannel/countermeasures.h"

namespace medsec::engine {

namespace {

using campaign::fnv1a;

// Derivation lanes on the injector's counter space. Lanes 0–5 belong to
// the injector itself (rate draw + fault coordinates); the drill's own
// draws start at 8 so a config change never reshuffles the faults.
constexpr std::uint64_t kLaneScalar = 8;
constexpr std::uint64_t kLaneDevRng = 9;
constexpr std::uint64_t kLaneSrvRng = 10;
constexpr std::uint64_t kLaneFixtures = 12;  // counter 0
constexpr std::uint64_t kLaneProbe = 13;     // counter 0

/// One session's record, written by exactly one shard, merged in gid
/// order.
struct Entry {
  DrillOutcome outcome = DrillOutcome::kRefused;
  std::uint32_t faults = 0;
  std::uint32_t retries = 0;
  bool armed = false;
  bool released = false;
  bool faulty = false;  ///< released but != referee k·P (must never happen)
  bool proto_ran = false;
  bool accepted = false;
  ecc::Fe x;  ///< released x-coordinate
};

}  // namespace

core::CountermeasureConfig fault_drill_processor_config() {
  core::CountermeasureConfig c;  // the shipped chip (RPC on)
  c.ladder.validate_points = true;
  c.ladder.coherence_check = true;
  return c;
}

FaultDrillResult run_fault_drill(const ecc::Curve& curve,
                                 const FaultDrillConfig& config) {
  FaultDrillConfig cfg = config;
  if (cfg.devices == 0) cfg.devices = 1;
  const hw::FaultInjector injector(cfg.seed, cfg.fault_rate);
  const core::SecureEccProcessor proc(curve, cfg.processor, cfg.seed);
  rng::Xoshiro256 fixture_rng(injector.word(0, kLaneFixtures));
  const campaign::Fixtures fx = campaign::make_fixtures(curve, fixture_rng);

  // Calibrate the fault shape from one clean probe run: the injector
  // scales glitch coordinates to what the hardened schedule actually
  // executes. Deterministic — the schedule length is a compile-time
  // function of the countermeasure set.
  hw::FaultShape shape;
  {
    const std::size_t iters =
        sidechannel::hardened_trace_length(curve, cfg.processor.ladder);
    shape.select_slots = iters;
    shape.instructions = iters * 15;
    core::SecureEccProcessor::Session probe = proc.open_session(0);
    rng::Xoshiro256 pr(injector.word(0, kLaneProbe));
    shape.cycles =
        probe.point_mult(pr.uniform_nonzero(curve.order()),
                         curve.base_point())
            .cycles;
  }

  // The operator's registry: device d enrolls (d+1)·G, drawn from no
  // injector lane, so enrollment moves no fault. It holds each device's
  // fault history and refuses the sessions of a quarantined one.
  DeviceRegistry registry(curve);
  for (std::size_t d = 0; d < cfg.devices; ++d)
    registry.enroll(ecc::scalar_mult(curve, ecc::Scalar{d + 1},
                                     curve.base_point()));

  std::vector<Entry> entries(cfg.sessions);

  // Shard by device: device d owns sessions gid ≡ d (mod devices), walked
  // in gid order, so its damage/quarantine state evolves identically for
  // any thread count. Shards touch disjoint entries_ indices and registry
  // slots.
  const auto work = [&](std::size_t dev_begin, std::size_t dev_end) {
    for (std::size_t device = dev_begin; device < dev_end; ++device) {
      const auto id = static_cast<std::uint32_t>(device);
      std::optional<hw::FaultSpec> permanent;  // stuck-at = lasting damage
      for (std::uint64_t gid = device; gid < cfg.sessions;
           gid += cfg.devices) {
        Entry& en = entries[static_cast<std::size_t>(gid)];
        if (!registry.admit(id)) {
          en.outcome = DrillOutcome::kRefused;
          continue;
        }
        rng::Xoshiro256 krng(injector.word(gid, kLaneScalar));
        const ecc::Scalar k = krng.uniform_nonzero(curve.order());
        core::SecureEccProcessor::Session sess = proc.open_session(gid + 1);

        std::optional<hw::FaultSpec> armed;
        if (permanent) {
          armed = *permanent;
        } else if (injector.should_fault(gid)) {
          armed = injector.draw(gid, shape);
          // A stuck-at is physical damage, not a glitch: it stays with
          // the device and re-arms on every later operation.
          if (armed->kind == hw::FaultKind::kStuckAt) permanent = *armed;
        }
        if (armed) {
          sess.arm_fault(*armed);
          en.armed = true;
        }

        bool released = false;
        core::PointMultOutcome out;
        try {
          out = sess.point_mult(k, curve.base_point());
          released = true;
        } catch (const std::logic_error&) {
          // Budget exhausted: budget+1 attempts, all detected, nothing
          // released.
          en.outcome = DrillOutcome::kUnrecovered;
          en.faults = static_cast<std::uint32_t>(core::kFaultRetryBudget + 1);
          en.retries = static_cast<std::uint32_t>(core::kFaultRetryBudget);
          registry.report_unrecovered_fault(id);
        }

        if (released) {
          en.faults = static_cast<std::uint32_t>(out.faults_detected);
          en.retries = static_cast<std::uint32_t>(out.retries);
          en.released = true;
          en.x = out.result.x;
          en.outcome = out.faults_detected != 0 ? DrillOutcome::kRecovered
                                                : DrillOutcome::kClean;
          // The referee: a released result must BE k·P, recovered or not.
          const ecc::Point ref =
              ecc::scalar_mult(curve, k, curve.base_point());
          if (!(out.result == ref)) en.faulty = true;

          // The protocol layer runs only on released (verified-clean)
          // results — a device that suppressed its point mult never
          // reaches the handshake.
          rng::Xoshiro256 dr(injector.word(gid, kLaneDevRng));
          rng::Xoshiro256 sr(injector.word(gid, kLaneSrvRng));
          const auto dev = campaign::device_factory(fx, gid)(dr);
          const auto srv = campaign::server_factory(fx, gid, false)(sr);
          en.proto_ran = true;
          try {
            protocol::Transcript t;
            en.accepted =
                protocol::drive_session(*dev, *srv, t) && srv->accepted();
          } catch (const std::exception&) {
            // A machine that throws fails the handshake.
          }
        }
      }
    }
  };

  std::unique_ptr<core::ThreadPool> owner;
  core::ThreadPool* pool = core::ThreadPool::for_config(cfg.threads, owner);
  if (pool != nullptr && cfg.devices > 1)
    pool->parallel_for(cfg.devices, 1, work);
  else
    work(0, cfg.devices);

  // Merge in session order — the determinism contract.
  FaultDrillResult out;
  out.sessions = cfg.sessions;
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (std::uint64_t gid = 0; gid < cfg.sessions; ++gid) {
    const Entry& en = entries[static_cast<std::size_t>(gid)];
    switch (en.outcome) {
      case DrillOutcome::kClean: ++out.clean; break;
      case DrillOutcome::kRecovered: ++out.recovered; break;
      case DrillOutcome::kUnrecovered: ++out.unrecovered; break;
      case DrillOutcome::kRefused: ++out.refused; break;
    }
    if (en.armed) ++out.faults_injected;
    out.faults_detected += en.faults;
    out.retries += en.retries;
    if (en.faulty) ++out.faulty_released;
    if (en.proto_ran) {
      if (en.accepted) ++out.protocol_accepted;
      else ++out.protocol_failed;
    }
    digest = fnv1a(digest, gid);
    digest = fnv1a(digest,
                   static_cast<std::uint64_t>(en.outcome) |
                       (static_cast<std::uint64_t>(en.faults) << 8) |
                       (static_cast<std::uint64_t>(en.retries) << 24) |
                       (en.accepted ? 1ULL << 40 : 0) |
                       (en.faulty ? 1ULL << 41 : 0));
    if (en.released)
      for (std::size_t i = 0; i < ecc::Fe::kLimbs; ++i)
        digest = fnv1a(digest, en.x.limb(i));
  }
  for (std::size_t d = 0; d < cfg.devices; ++d)
    if (registry.quarantined(static_cast<std::uint32_t>(d)))
      ++out.devices_quarantined;
  out.digest = digest;
  return out;
}

}  // namespace medsec::engine
