#!/usr/bin/env python3
"""ISA confinement gate: carry-less multiplies live only in the kernel objects.

Disassembles the medsec static library with `objdump -d` and fails (exit 1)
when a carry-less multiply instruction (PCLMULQDQ / VPCLMULQDQ in any of
objdump's immediate-specific spellings, e.g. pclmullqhqdq; PMULL on
AArch64) appears anywhere outside the allow-list:

  clmul_instances.cpp.o  the one translation unit compiled for the
                         instruction (src/gf2m/field_ops.h). Every function
                         in it that contains the instruction must be an
                         instantiation over the clmul kernels, i.e. its
                         symbol names hwclmul::mul326_clmul / sqr326_clmul.
                         That catches an inline helper the compiler emitted
                         there under -mpclmul, which the linker could pick
                         for callers on any host.
  lanes.cpp.o            the lane kernels, which carry their own target
                         attributes and are selected by CPUID at run time.

A host that dispatches to karatsuba must never meet the instruction; the
rest of the library is built for the baseline ISA, and this gate proves it
on the built archive. On x86-64 the gate also requires the clmul
translation unit to contain the instruction, so a build that lost its
-mpclmul flag cannot pass by accident.

Usage:
  python3 bench/check_isa_confinement.py [build/libmedsec.a]
"""

import os
import re
import shutil
import subprocess
import sys

INSTANCES_OBJECT = "clmul_instances.cpp.o"
ALLOWED_OBJECTS = {INSTANCES_OBJECT, "lanes.cpp.o"}
KERNEL_SYMBOLS = ("mul326_clmul", "sqr326_clmul")

CLMUL_RE = re.compile(r"\s(v?pclmul[a-z]*dq|pmull2?)\s")
OBJECT_RE = re.compile(r"^(\S+):\s+file format (\S+)")
FUNCTION_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")


def scan(library):
    """{object: {function: count}} of carry-less multiplies, and formats."""
    objdump = shutil.which("objdump")
    if objdump is None:
        sys.exit("check_isa_confinement: objdump not found")
    proc = subprocess.run([objdump, "-d", "--no-show-raw-insn", library],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"check_isa_confinement: objdump failed: {proc.stderr}")
    hits = {}
    formats = {}
    obj = fn = None
    for line in proc.stdout.splitlines():
        m = OBJECT_RE.match(line)
        if m:
            obj, fn = m.group(1), None
            formats[obj] = m.group(2)
            continue
        m = FUNCTION_RE.match(line)
        if m:
            fn = m.group(1)
            continue
        if obj is not None and CLMUL_RE.search(line):
            per_fn = hits.setdefault(obj, {})
            per_fn[fn] = per_fn.get(fn, 0) + 1
    return hits, formats


def main():
    library = sys.argv[1] if len(sys.argv) > 1 else "build/libmedsec.a"
    if not os.path.exists(library):
        sys.exit(f"check_isa_confinement: {library} not found (build first)")
    hits, formats = scan(library)
    if not formats:
        sys.exit(f"check_isa_confinement: no objects in {library}")

    failures = []
    for obj, per_fn in sorted(hits.items()):
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

    x86 = any("x86-64" in f for f in formats.values())
    if x86 and INSTANCES_OBJECT not in hits:
        failures.append(f"{INSTANCES_OBJECT}: no carry-less multiply on an "
                        "x86-64 build (was it compiled without -mpclmul?)")

    if failures:
        print("\nISA CONFINEMENT GATE FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nisa confinement: {len(formats)} objects checked, carry-less "
          f"multiplies only in {', '.join(sorted(hits)) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
