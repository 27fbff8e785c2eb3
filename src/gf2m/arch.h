// arch.h — host ISA detection shared by every accelerated gf2m kernel.
//
// One place defines the architecture gates (MEDSEC_ARCH_X86_64 /
// MEDSEC_ARCH_AARCH64) and the runtime CPUID predicates the lane
// registry dispatches on. The AES-NI and SHA-NI kernels of
// ciphers/aes128.cpp and hash/sha256.cpp compile under the same x86-64
// gate. The hardware paths use GCC/Clang-only
// constructs (target attributes, __builtin_cpu_supports), so the gates
// require those compilers too; other compilers fall back to the software
// (karatsuba / per-lane scalar) backends.
#pragma once

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define MEDSEC_ARCH_X86_64 1
#include <immintrin.h>
#endif

#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define MEDSEC_ARCH_AARCH64 1
#include <arm_neon.h>
#if __has_include(<sys/auxv.h>)
#include <sys/auxv.h>
#define MEDSEC_HAVE_AUXV 1
#endif
#endif

namespace medsec::gf2m::cpu {

#if MEDSEC_ARCH_X86_64

/// 512-bit VPCLMULQDQ: four carryless multiplies per instruction across
/// ZMM lanes. The EVEX encoding needs AVX-512F; BW/VL cover the byte and
/// 256-bit forms the kernels mix in.
inline bool has_vpclmul512() {
  return __builtin_cpu_supports("vpclmulqdq") != 0 &&
         __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
}

/// 256-bit VEX VPCLMULQDQ (two carryless multiplies per instruction):
/// present on AVX-512 parts and on VPCLMULQDQ+AVX2-only cores
/// (e.g. Gracemont) that lack the 512-bit registers.
inline bool has_vpclmul256() {
  return __builtin_cpu_supports("vpclmulqdq") != 0 &&
         __builtin_cpu_supports("avx2") != 0;
}

#else

// Non-x86 hosts: the vector paths below are x86-only; carry-less
// multiply detection stays with hwclmul::clmul_supported() (clmul_hw.h).
inline bool has_vpclmul512() { return false; }
inline bool has_vpclmul256() { return false; }

#endif

}  // namespace medsec::gf2m::cpu
