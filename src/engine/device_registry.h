// device_registry.h — the fleet's enrolled device keys and their fault
// quarantine, shared by every shard's SessionFactory.
//
// Enrollment validates a key once (prime-order subgroup membership) and
// refuses a key that is already enrolled, so "device index" and "public
// key" stay in bijection; per-session traffic never re-validates it.
//
// Quarantine is per device: a front end that relays a device's fault
// report (core::PointMultOutcome, or an abort after the retry budget ran
// out) counts each UNRECOVERED fault here — the one place a device's fault
// history lives. At kFaultThreshold the device is quarantined: admit()
// stops handing out its key, the factories refuse its sessions, and its
// shard answers each one with an explicit kReject.
// A device under physical fault attack — or simply dying — must not keep
// consuming server sessions.
//
// Thread-safe: factories consult it from every shard thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "ecc/curve.h"

namespace medsec::engine {

class DeviceRegistry {
 public:
  /// Unrecovered faults that quarantine a device.
  static constexpr std::size_t kFaultThreshold = 2;

  explicit DeviceRegistry(const ecc::Curve& curve) : curve_(&curve) {}

  DeviceRegistry(const DeviceRegistry&) = delete;
  DeviceRegistry& operator=(const DeviceRegistry&) = delete;

  /// Register a device public key; returns its index. Throws
  /// std::invalid_argument for a key outside the prime-order subgroup and
  /// for a key that is already enrolled (double-enroll rejection).
  std::uint32_t enroll(const ecc::Point& X);

  /// The key a new session for `device` verifies against, or nullopt when
  /// the device is unknown or quarantined — the factory's cue to refuse.
  std::optional<ecc::Point> admit(std::uint32_t device) const;

  /// Count one unrecovered fault against `device` (unknown devices are
  /// ignored). True for exactly the report that quarantines it.
  bool report_unrecovered_fault(std::uint32_t device);

  bool quarantined(std::uint32_t device) const;

 private:
  struct Device {
    ecc::Point key;
    std::size_t unrecovered = 0;
  };

  const ecc::Curve* curve_;
  mutable std::mutex mu_;
  std::vector<Device> devices_;
};

}  // namespace medsec::engine
