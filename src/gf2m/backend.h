// backend.h — pluggable arithmetic backends for the F_2^163 field layer.
//
// The paper's thesis is that a carry-less multiplier is smaller and faster
// than an integer one; this subsystem makes the *software model* of that
// multiplier as fast as the host allows, with two interchangeable
// implementations of the unreduced 3x3-limb carry-less product — one per
// kind of target, as auto-dispatch picks them:
//
//   kKaratsuba  — branchless 4-bit-window clmul emulation, 3-limb
//                 Karatsuba (6 emulated clmuls). Always available; the
//                 pick on CPUs without a carry-less multiplier.
//   kClmul      — hardware carry-less multiply (x86 PCLMULQDQ or AArch64
//                 PMULL) plus the same Karatsuba schedule. Available only
//                 when the CPU advertises the instruction.
//
// Selection: runtime CPU detection picks the fastest available backend at
// startup; the MEDSEC_GF2M_BACKEND environment variable
// (karatsuba | clmul | auto) overrides it, and set_backend() switches
// programmatically (used by the per-backend benches and the cross-check
// tests). Both backends are bit-for-bit interchangeable (gf2_poly.h is
// the independent oracle they are checked against).
//
// Dispatch happens once per top-level operation, not once per multiply:
// a scalar multiplication, MSM, batch decode or inversion reads
// active_backend() once and runs formulas instantiated over that
// backend's inlined kernel (field_ops.h). set_backend() takes effect at
// the next such call. Only the Gf163::mul / sqr / mul_add_mul /
// sqr_add_mul per-operation API, kept for cold callers, still goes
// through the vtable below on every call.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

namespace medsec::gf2m {

class Gf163;

enum class Backend {
  kKaratsuba,
  kClmul,
};

/// Unreduced carry-less product of 3-limb polynomials: p[0..5] = a (x) b.
using MulFn = void (*)(const std::uint64_t a[3], const std::uint64_t b[3],
                       std::uint64_t p[6]);
/// Unreduced carry-less square: p[0..5] = a (x) a.
using SqrFn = void (*)(const std::uint64_t a[3], std::uint64_t p[6]);

struct BackendVTable {
  Backend id;
  const char* name;
  /// Unreduced kernels (cross-check tests, the per-lane scalar loop).
  MulFn mul;
  SqrFn sqr;
  /// The reduced single operations behind the Gf163 per-operation API.
  Gf163 (*field_mul)(const Gf163& a, const Gf163& b);
  Gf163 (*field_sqr)(const Gf163& a);
  Gf163 (*field_mul_add_mul)(const Gf163& a, const Gf163& b, const Gf163& c,
                             const Gf163& d);
  Gf163 (*field_sqr_add_mul)(const Gf163& a, const Gf163& b,
                             const Gf163& c);
};

/// The backend the next top-level operation will run on.
Backend active_backend();
const char* backend_name(Backend b);

/// True if the backend can run on this CPU (kKaratsuba always; kClmul
/// only with PCLMULQDQ / PMULL support).
bool backend_available(Backend b);

/// Switch the active backend, effective from the next top-level call.
/// Returns false (and leaves the dispatch unchanged) if the backend is
/// unavailable on this CPU.
bool set_backend(Backend b);

/// All backends this build knows about, in preference order (fastest first).
std::vector<Backend> known_backends();

/// Direct access to a backend's vtable (nullptr if unavailable): the
/// cross-check tests and benches drive every implementation explicitly,
/// bypassing the global dispatch.
const BackendVTable* backend_vtable(Backend b);

/// Parse a backend name (canonical name or alias, as accepted by
/// MEDSEC_GF2M_BACKEND). Returns false on unknown names — callers (the
/// env override, bench tooling) must fail loudly rather than fall
/// through.
bool backend_from_name(std::string_view name, Backend& out);

/// Human-readable ISA requirement ("nothing (portable C++)",
/// "PCLMULQDQ (x86-64) / PMULL (AArch64)", ...), for --list-backends
/// output and dispatch diagnostics.
const char* backend_requirement(Backend b);

namespace detail {
/// The active vtable, null until the first use initializes it.
extern std::atomic<const BackendVTable*> active_slot;
/// Initializes active_slot from CPU detection + MEDSEC_GF2M_BACKEND (once)
/// and returns it.
const BackendVTable* init_active_vtable();
/// The active vtable (never null). Inline: the Gf163 per-operation API
/// pays one relaxed load and one indirect call per operation.
inline const BackendVTable* active_vtable() {
  const BackendVTable* t = active_slot.load(std::memory_order_relaxed);
  return t != nullptr ? t : init_active_vtable();
}
}  // namespace detail

// --- wide-lane backends -----------------------------------------------------
//
// The batch field layer (gf163_lanes.h) computes N independent field
// operations per call over structure-of-arrays operands. Four
// implementations of that contract:
//
//   kLaneScalar     — per-lane loop over the active scalar backend.
//                     Reference path, always available.
//   kLaneClmulWide  — hardware carry-less multiply with 2–4 independent
//                     products interleaved per iteration to hide
//                     PCLMULQDQ latency (x86-64 only).
//   kLaneVpclmul512 — VPCLMULQDQ mega-lanes: 8–16 lanes ZMM-resident
//                     through mul/sqr and the fused forms, vector
//                     shift-reduce fold (needs VPCLMULQDQ +
//                     AVX-512F/BW/VL).
//   kLaneVpclmul256 — the 4-wide YMM variant of the same kernels for
//                     VPCLMULQDQ+AVX2 hosts without AVX-512.
//
// Selection follows the scalar registry: set_backend() / the
// MEDSEC_GF2M_BACKEND override pick the matching lane backend (clmul →
// the widest available of vpclmul512 > vpclmul256 > clmulwide, karatsuba
// → kLaneScalar). MEDSEC_GF2M_LANES (scalar | clmulwide | vpclmul512 |
// vpclmul256 | auto) or set_lane_backend() force a specific one
// regardless; an unknown name aborts with the list of compiled-in
// backends.

enum class LaneBackend {
  kLaneScalar,
  kLaneClmulWide,
  kLaneVpclmul512,
  kLaneVpclmul256,
};

/// Structure-of-arrays views over N field elements: limb l of lane i is
/// l<n>[i]. Outputs are fully reduced. `out` may alias any input view
/// (the kernels read a lane's operands before writing its result).
struct LaneView {
  const std::uint64_t* l0;
  const std::uint64_t* l1;
  const std::uint64_t* l2;
};
struct LaneSpan {
  std::uint64_t* l0;
  std::uint64_t* l1;
  std::uint64_t* l2;
};

using LaneMulFn = void (*)(LaneView a, LaneView b, LaneSpan out,
                           std::size_t n);
using LaneSqrFn = void (*)(LaneView a, LaneSpan out, std::size_t n);
/// out[i] = a[i]·b[i] + c[i]·d[i], one reduction per lane (lazy fold).
using LaneMulAddMulFn = void (*)(LaneView a, LaneView b, LaneView c,
                                 LaneView d, LaneSpan out, std::size_t n);
/// out[i] = a[i]^2 + b[i]·c[i], one reduction per lane.
using LaneSqrAddMulFn = void (*)(LaneView a, LaneView b, LaneView c,
                                 LaneSpan out, std::size_t n);

struct LaneVTable {
  LaneBackend id;
  const char* name;
  /// Natural lane granularity (the width at which the backend hits full
  /// throughput): 16 for the ZMM kernels, a few for interleaved clmul.
  /// Campaign code sizes its trace blocks as a multiple of this.
  std::size_t preferred_width;
  LaneMulFn mul;
  LaneSqrFn sqr;
  LaneMulAddMulFn mul_add_mul;
  LaneSqrAddMulFn sqr_add_mul;
};

const char* lane_backend_name(LaneBackend b);
bool lane_backend_available(LaneBackend b);
/// The lane vtable the batch layer currently dispatches to (never null).
const LaneVTable* active_lane_vtable();
LaneBackend active_lane_backend();
/// Pin the lane dispatch to one backend (returns false if unavailable).
bool set_lane_backend(LaneBackend b);
/// Back to automatic selection (follow the scalar backend). Discards any
/// pin, including one installed at startup from MEDSEC_GF2M_LANES.
void reset_lane_backend();
/// Direct vtable access for cross-check tests (nullptr if unavailable).
const LaneVTable* lane_vtable(LaneBackend b);
/// All lane backends this build knows about, in preference order.
std::vector<LaneBackend> known_lane_backends();

/// Parse a lane-backend name (canonical name or alias, as accepted by
/// MEDSEC_GF2M_LANES). Returns false on unknown names.
bool lane_backend_from_name(std::string_view name, LaneBackend& out);

/// Human-readable ISA requirement for --list-backends output and
/// dispatch diagnostics.
const char* lane_backend_requirement(LaneBackend b);

}  // namespace medsec::gf2m
