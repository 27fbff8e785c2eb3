#include "gf2m/backend.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "gf2m/clmul_hw.h"
#include "gf2m/field_ops.h"

namespace medsec::gf2m {

namespace {

// --- vtables and dispatch ---------------------------------------------------
//
// The karatsuba vtable is built here; the clmul one lives in
// clmul_instances.cpp with every other ClmulOps instantiation, so this
// object never contains a carry-less multiply instruction.

constexpr BackendVTable kKaratsubaVTable = make_backend_vtable<KaratsubaOps>(
    Backend::kKaratsuba, "karatsuba", &mul326_karatsuba, &sqr326_portable);

const BackendVTable* vtable_for(Backend b) {
  switch (b) {
    case Backend::kKaratsuba:
      return &kKaratsubaVTable;
    case Backend::kClmul:
#if MEDSEC_HAVE_CLMUL_OPS
      if (hwclmul::clmul_supported()) return &detail::kClmulVTable;
#endif
      return nullptr;
  }
  return nullptr;
}

const BackendVTable* default_vtable() {
  // Environment override first, then fastest-available.
  if (const char* env = std::getenv("MEDSEC_GF2M_BACKEND")) {
    const std::string_view v{env};
    if (v != "auto" && !v.empty()) {
      Backend b;
      if (!backend_from_name(v, b)) {
        std::fprintf(stderr,
                     "medsec: unknown MEDSEC_GF2M_BACKEND=%s; compiled-in "
                     "scalar backends:\n",
                     env);
        for (const Backend kb : known_backends())
          std::fprintf(stderr, "  %-12s requires %s%s\n", backend_name(kb),
                       backend_requirement(kb),
                       backend_available(kb) ? ""
                                             : "  [unavailable on this CPU]");
        std::fprintf(stderr, "  %-12s (runtime CPU detection)\n", "auto");
        std::exit(2);
      }
      if (const BackendVTable* t = vtable_for(b)) return t;
      std::fprintf(stderr,
                   "medsec: MEDSEC_GF2M_BACKEND=%s requested but %s is "
                   "unavailable on this CPU; using auto\n",
                   env, backend_requirement(b));
    }
  }
  if (const BackendVTable* t = vtable_for(Backend::kClmul)) return t;
  return &kKaratsubaVTable;
}

// --- lane dispatch ----------------------------------------------------------
//
// The lane vtables themselves live in lanes.cpp (they pull in the
// interleaved and vector clmul kernels); this translation unit owns the
// selection policy so the scalar and wide registries stay one subsystem.

/// Lane backend pinned by set_lane_backend / MEDSEC_GF2M_LANES, or null
/// for automatic (follow the scalar backend).
std::atomic<const LaneVTable*>& lane_override_slot() {
  static std::atomic<const LaneVTable*> slot{[]() -> const LaneVTable* {
    const char* env = std::getenv("MEDSEC_GF2M_LANES");
    if (env == nullptr) return nullptr;
    const std::string_view v{env};
    if (v == "auto" || v.empty()) return nullptr;
    LaneBackend b;
    if (!lane_backend_from_name(v, b)) {
      // Unknown names abort: a typo here would silently run an entire
      // campaign on the wrong kernels.
      std::fprintf(stderr,
                   "medsec: unknown MEDSEC_GF2M_LANES=%s; compiled-in lane "
                   "backends:\n",
                   env);
      for (const LaneBackend kb : known_lane_backends())
        std::fprintf(stderr, "  %-12s requires %s%s\n", lane_backend_name(kb),
                     lane_backend_requirement(kb),
                     lane_backend_available(kb) ? ""
                                                : "  [unavailable on this CPU]");
      std::fprintf(stderr, "  %-12s (runtime CPU detection)\n", "auto");
      std::exit(2);
    }
    if (const LaneVTable* t = lane_vtable(b)) return t;
    // Known but not runnable here (CI pins backends on heterogeneous
    // runners): warn and fall back to auto so the suite still runs.
    std::fprintf(stderr,
                 "medsec: MEDSEC_GF2M_LANES=%s requested but %s is "
                 "unavailable on this CPU; using auto\n",
                 env, lane_backend_requirement(b));
    return nullptr;
  }()};
  return slot;
}

}  // namespace

namespace detail {
constinit std::atomic<const BackendVTable*> active_slot{nullptr};

const BackendVTable* init_active_vtable() {
  // Runs default_vtable() — and with it the MEDSEC_GF2M_BACKEND check —
  // exactly once, however many threads race to the first operation.
  static const bool initialized = [] {
    active_slot.store(default_vtable(), std::memory_order_relaxed);
    return true;
  }();
  (void)initialized;
  return active_slot.load(std::memory_order_relaxed);
}
}  // namespace detail

Backend active_backend() { return detail::active_vtable()->id; }

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kKaratsuba:
      return "karatsuba";
    case Backend::kClmul:
      return "clmul";
  }
  return "?";
}

bool backend_available(Backend b) { return vtable_for(b) != nullptr; }

bool set_backend(Backend b) {
  const BackendVTable* t = vtable_for(b);
  if (t == nullptr) return false;
  detail::init_active_vtable();  // the environment is read before any pin
  detail::active_slot.store(t, std::memory_order_relaxed);
  return true;
}

std::vector<Backend> known_backends() {
  return {Backend::kClmul, Backend::kKaratsuba};
}

const BackendVTable* backend_vtable(Backend b) { return vtable_for(b); }

bool backend_from_name(std::string_view name, Backend& out) {
  if (name == "karatsuba") {
    out = Backend::kKaratsuba;
    return true;
  }
  if (name == "clmul" || name == "pclmul" || name == "pmull" || name == "hw") {
    out = Backend::kClmul;
    return true;
  }
  return false;
}

const char* backend_requirement(Backend b) {
  switch (b) {
    case Backend::kKaratsuba:
      return "nothing (portable C++)";
    case Backend::kClmul:
      return "PCLMULQDQ (x86-64) / PMULL (AArch64)";
  }
  return "?";
}

const char* lane_backend_name(LaneBackend b) {
  switch (b) {
    case LaneBackend::kLaneScalar:
      return "scalar";
    case LaneBackend::kLaneClmulWide:
      return "clmulwide";
    case LaneBackend::kLaneVpclmul512:
      return "vpclmul512";
    case LaneBackend::kLaneVpclmul256:
      return "vpclmul256";
  }
  return "?";
}

bool lane_backend_from_name(std::string_view name, LaneBackend& out) {
  if (name == "scalar") {
    out = LaneBackend::kLaneScalar;
    return true;
  }
  if (name == "clmul" || name == "clmulwide" || name == "wide") {
    out = LaneBackend::kLaneClmulWide;
    return true;
  }
  if (name == "vpclmul512" || name == "vpclmul" || name == "zmm") {
    out = LaneBackend::kLaneVpclmul512;
    return true;
  }
  if (name == "vpclmul256" || name == "ymm") {
    out = LaneBackend::kLaneVpclmul256;
    return true;
  }
  return false;
}

const char* lane_backend_requirement(LaneBackend b) {
  switch (b) {
    case LaneBackend::kLaneScalar:
      return "nothing (follows the scalar backend)";
    case LaneBackend::kLaneClmulWide:
      return "PCLMULQDQ (x86-64)";
    case LaneBackend::kLaneVpclmul512:
      return "VPCLMULQDQ + AVX-512F/BW/VL";
    case LaneBackend::kLaneVpclmul256:
      return "VPCLMULQDQ + AVX2";
  }
  return "?";
}

bool lane_backend_available(LaneBackend b) { return lane_vtable(b) != nullptr; }

const LaneVTable* active_lane_vtable() {
  if (const LaneVTable* t =
          lane_override_slot().load(std::memory_order_relaxed))
    return t;
  // Automatic: follow the scalar backend. Hardware clmul gets the widest
  // vector kernel the CPU offers (ZMM mega-lanes > YMM > interleaved
  // 128-bit); karatsuba (the no-CLMUL software path) keeps the plain
  // per-lane loop over itself.
  if (active_backend() == Backend::kClmul) {
    if (const LaneVTable* t = lane_vtable(LaneBackend::kLaneVpclmul512))
      return t;
    if (const LaneVTable* t = lane_vtable(LaneBackend::kLaneVpclmul256))
      return t;
    if (const LaneVTable* t = lane_vtable(LaneBackend::kLaneClmulWide))
      return t;
  }
  return lane_vtable(LaneBackend::kLaneScalar);
}

LaneBackend active_lane_backend() { return active_lane_vtable()->id; }

bool set_lane_backend(LaneBackend b) {
  const LaneVTable* t = lane_vtable(b);
  if (t == nullptr) return false;
  lane_override_slot().store(t, std::memory_order_relaxed);
  return true;
}

void reset_lane_backend() {
  lane_override_slot().store(nullptr, std::memory_order_relaxed);
}

std::vector<LaneBackend> known_lane_backends() {
  return {LaneBackend::kLaneVpclmul512, LaneBackend::kLaneVpclmul256,
          LaneBackend::kLaneClmulWide, LaneBackend::kLaneScalar};
}

}  // namespace medsec::gf2m
