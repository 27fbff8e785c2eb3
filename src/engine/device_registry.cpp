#include "engine/device_registry.h"

#include <stdexcept>

namespace medsec::engine {

std::uint32_t DeviceRegistry::enroll(const ecc::Point& X) {
  if (!curve_->validate_subgroup_point(X))
    throw std::invalid_argument("DeviceRegistry::enroll: invalid device key");
  const std::lock_guard<std::mutex> lock(mu_);
  // One identity, one registry slot: a repeated key is a provisioning
  // error or a cloning attempt.
  for (const Device& d : devices_)
    if (d.key == X)
      throw std::invalid_argument(
          "DeviceRegistry::enroll: key already enrolled");
  devices_.push_back(Device{X});
  return static_cast<std::uint32_t>(devices_.size() - 1);
}

std::optional<ecc::Point> DeviceRegistry::admit(std::uint32_t device) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (device >= devices_.size() ||
      devices_[device].unrecovered >= kFaultThreshold)
    return std::nullopt;
  return devices_[device].key;
}

bool DeviceRegistry::report_unrecovered_fault(std::uint32_t device) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (device >= devices_.size()) return false;
  return ++devices_[device].unrecovered == kFaultThreshold;
}

bool DeviceRegistry::quarantined(std::uint32_t device) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return device < devices_.size() &&
         devices_[device].unrecovered >= kFaultThreshold;
}

}  // namespace medsec::engine
