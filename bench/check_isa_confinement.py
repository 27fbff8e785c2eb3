#!/usr/bin/env python3
"""ISA confinement gate: carry-less multiplies, AES-NI and SHA-NI live only in
their kernel objects.

Disassembles the medsec static library with `objdump -d` and fails (exit 1)
when a carry-less multiply instruction (PCLMULQDQ / VPCLMULQDQ in any of
objdump's immediate-specific spellings, e.g. pclmullqhqdq; PMULL on
AArch64) appears anywhere outside the allow-list:

  clmul_instances.cpp.o  the one translation unit compiled for the
                         instruction (src/gf2m/field_ops.h). Every function
                         in it that contains the instruction must be an
                         instantiation over the clmul kernels, i.e. its
                         symbol names hwclmul::XmmKernel (the x86-64 field
                         kernel), hwclmul::mul326_clmul / sqr326_clmul, or
                         the kernel's fold reduce326_clmul (its own pclmul
                         target; a Debug build emits it out of line).
                         That catches an inline helper the compiler emitted
                         there under -mpclmul, which the linker could pick
                         for callers on any host.
  lanes.cpp.o            the lane kernels, which carry their own target
                         attributes and are selected by CPUID at run time.
                         In an optimized build every function in it that
                         contains the instruction must be a lane_* kernel
                         entry: the VPCLMULQDQ kernel templates are
                         always inlined and the entries flatten the width
                         members into themselves, so one emitted out of
                         line costs a call per instruction. An unoptimized
                         object (its DWARF producer names -O0, -Og or no
                         -O level: a Debug build) calls them by design and
                         is exempt from this rule only.

Every *_vpclmul256 function must also be free of AVX-512-only encodings
(a ZMM register, a mask register, xmm/ymm16-31, VPTERNLOG, the EVEX-only
moves and logic ops): the YMM backend serves VPCLMULQDQ+AVX2 hosts without
AVX-512, where such an instruction traps.

A host that dispatches to karatsuba must never meet the instruction; the
rest of the library is built for the baseline ISA, and this gate proves it
on the built archive. On x86-64 the gate also requires the clmul
translation unit to contain the instruction, so a build that lost its
-mpclmul flag cannot pass by accident.

The session byte kernels are confined the same way. AES-NI (aesenc,
aesenclast, aesdec, aesdeclast, aesimc, aeskeygenassist and their
v-prefixed forms) may appear only in aes128.cpp.o, and there only in the
kernel functions expand_key_aesni and encrypt_block_aesni; SHA-NI
(sha256rnds2, sha256msg1, sha256msg2) only in sha256.cpp.o, and there only
in compress_shani. Each kernel carries its own target attribute and is
chosen by CPUID once per process, so the instructions inlined into any
other function would run on hosts without them. On x86-64 each object must
contain its family, so a build that lost the attribute fails.

Usage:
  python3 bench/check_isa_confinement.py [build/libmedsec.a]
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

INSTANCES_OBJECT = "clmul_instances.cpp.o"
LANES_OBJECT = "lanes.cpp.o"
ALLOWED_OBJECTS = {INSTANCES_OBJECT, LANES_OBJECT}
KERNEL_SYMBOLS = ("XmmKernel", "mul326_clmul", "sqr326_clmul",
                  "reduce326_clmul")
LANE_ENTRY_PREFIX = "lane_"
YMM_SUFFIX = "_vpclmul256"

CLMUL_RE = re.compile(r"\s(v?pclmul[a-z]*dq|pmull2?)\s")
# (family, mnemonics, the one object allowed to hold them, the functions in
# it that may).
KERNEL_FAMILIES = (
    ("AES-NI",
     re.compile(r"\sv?aes(enc|enclast|dec|declast|imc|keygenassist)\s"),
     "aes128.cpp.o", ("expand_key_aesni", "encrypt_block_aesni")),
    ("SHA-NI", re.compile(r"\ssha256(rnds2|msg1|msg2)\s"),
     "sha256.cpp.o", ("compress_shani",)),
)
CLMUL = "carry-less multiply"
MNEMONICS = {CLMUL: CLMUL_RE,
             **{family: regex for family, regex, _, _ in KERNEL_FAMILIES}}
AVX512_ONLY_RE = re.compile(
    r"%zmm|%k[0-7]\b|%[xy]mm(1[6-9]|2[0-9]|3[01])\b|\svpternlog"
    r"|\svmovdq[au](8|16|32|64)\s|\svp(and|andn|or|xor)[dq]\s")
OBJECT_RE = re.compile(r"^(\S+):\s+file format (\S+)")
FUNCTION_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")


def function_name(symbol):
    """Innermost identifier of a mangled nested name (_ZN...), e.g.
    lane_mul_vpclmul512 for medsec::gf2m::(anon)::lane_mul_vpclmul512;
    the symbol itself when it is not one."""
    if not symbol.startswith("_ZN"):
        return symbol
    i = 3
    name = symbol
    while i < len(symbol) and symbol[i].isdigit():
        j = i
        while j < len(symbol) and symbol[j].isdigit():
            j += 1
        n = int(symbol[i:j])
        name = symbol[j:j + n]
        i = j + n
    return name


def optimized(library, member):
    """False when `member` of `library` was compiled without optimization:
    its DWARF producer string names -O0, -Og or no -O level. True
    otherwise, including when it carries no DWARF (a Release build)."""
    ar, readelf = shutil.which("ar"), shutil.which("readelf")
    if ar is None or readelf is None:
        return True
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, member)
        with open(path, "wb") as out:
            if subprocess.run([ar, "p", library, member], stdout=out,
                              stderr=subprocess.DEVNULL).returncode != 0:
                return True
        info = subprocess.run([readelf, "--debug-dump=info", path],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True).stdout
    m = re.search(r"DW_AT_producer.*", info)
    if m is None:
        return True
    levels = re.findall(r"\s-O(\w*)", m.group(0))
    return bool(levels) and levels[-1] not in ("0", "g")


def scan(library):
    """{family: {object: {function: count}}} over MNEMONICS, the
    *_vpclmul256 functions with their AVX-512-only instructions, and
    formats."""
    objdump = shutil.which("objdump")
    if objdump is None:
        sys.exit("check_isa_confinement: objdump not found")
    proc = subprocess.run([objdump, "-d", "--no-show-raw-insn", library],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"check_isa_confinement: objdump failed: {proc.stderr}")
    hits = {family: {} for family in MNEMONICS}
    ymm = {}
    formats = {}
    obj = fn = None
    fn_is_ymm = False
    for line in proc.stdout.splitlines():
        m = OBJECT_RE.match(line)
        if m:
            obj, fn = m.group(1), None
            formats[obj] = m.group(2)
            continue
        m = FUNCTION_RE.match(line)
        if m:
            fn = m.group(1)
            fn_is_ymm = function_name(fn).endswith(YMM_SUFFIX)
            if fn_is_ymm:
                ymm.setdefault((obj, fn), [])
            continue
        if obj is None:
            continue
        for family, mnemonics in MNEMONICS.items():
            if mnemonics.search(line):
                per_fn = hits[family].setdefault(obj, {})
                per_fn[fn] = per_fn.get(fn, 0) + 1
        if fn_is_ymm and AVX512_ONLY_RE.search(line):
            ymm[(obj, fn)].append(line.split("\t")[-1].strip())
    return hits, ymm, formats


def check_kernel_family(family, hits, obj_allowed, functions, x86):
    """Failures for one KERNEL_FAMILIES entry: its instructions outside
    `obj_allowed`, in a function there not named in `functions`, or (on
    x86-64) absent from `obj_allowed`."""
    failures = []
    for obj, per_fn in sorted(hits.items()):
        total = sum(per_fn.values())
        if obj != obj_allowed:
            failures.append(f"{obj}: {total} {family} instructions outside "
                            f"{obj_allowed}, in {', '.join(sorted(per_fn))}")
            continue
        print(f"ok   {obj}: {total} {family} instructions in "
              f"{len(per_fn)} functions")
        for fn in sorted(per_fn):
            if function_name(fn) not in functions:
                failures.append(f"{obj}: {fn} carries {family} instructions "
                                f"but is not one of the kernels "
                                f"{', '.join(functions)}")
    if x86 and obj_allowed not in hits:
        failures.append(f"{obj_allowed}: no {family} instruction on an x86-64 "
                        "build (did its kernels lose their target "
                        "attribute?)")
    return failures


def main():
    library = sys.argv[1] if len(sys.argv) > 1 else "build/libmedsec.a"
    if not os.path.exists(library):
        sys.exit(f"check_isa_confinement: {library} not found (build first)")
    hits, ymm, formats = scan(library)
    if not formats:
        sys.exit(f"check_isa_confinement: no objects in {library}")

    failures = []
    clmul = hits[CLMUL]
    for obj, per_fn in sorted(clmul.items()):
        total = sum(per_fn.values())
        if obj not in ALLOWED_OBJECTS:
            failures.append(f"{obj}: {total} carry-less multiplies outside "
                            f"the allow-list, in {', '.join(sorted(per_fn))}")
            continue
        print(f"ok   {obj}: {total} carry-less multiplies "
              f"in {len(per_fn)} functions")
        if obj == INSTANCES_OBJECT:
            for fn in sorted(per_fn):
                if not any(k in fn for k in KERNEL_SYMBOLS):
                    failures.append(f"{obj}: {fn} carries a carry-less "
                                    "multiply but is not a clmul-policy "
                                    "instantiation")
        if obj == LANES_OBJECT and not optimized(library, obj):
            print(f"     {obj}: unoptimized build, lane_* entry rule "
                  "skipped")
        elif obj == LANES_OBJECT:
            for fn in sorted(per_fn):
                if not function_name(fn).startswith(LANE_ENTRY_PREFIX):
                    failures.append(f"{obj}: {fn} carries a carry-less "
                                    "multiply but is not a lane_* kernel "
                                    "entry (a width member or kernel "
                                    "template emitted out of line?)")

    for (obj, fn), bad in sorted(ymm.items()):
        if bad:
            failures.append(f"{obj}: {fn} holds {len(bad)} AVX-512-only "
                            f"instructions, e.g. '{bad[0]}'")
    print(f"ok   {len(ymm)} *{YMM_SUFFIX} functions checked for "
          "AVX-512-only encodings")

    x86 = any("x86-64" in f for f in formats.values())
    if x86 and INSTANCES_OBJECT not in clmul:
        failures.append(f"{INSTANCES_OBJECT}: no carry-less multiply on an "
                        "x86-64 build (was it compiled without -mpclmul?)")
    for family, _, obj_allowed, functions in KERNEL_FAMILIES:
        failures.extend(check_kernel_family(family, hits[family],
                                            obj_allowed, functions, x86))

    if failures:
        print("\nISA CONFINEMENT GATE FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    confined = ", ".join(
        f"{family} only in {', '.join(sorted(per_obj)) or 'none'}"
        for family, per_obj in hits.items())
    print(f"\nisa confinement: {len(formats)} objects checked, {confined}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
