#!/usr/bin/env python3
"""Lint for unseeded randomness in the source tree.

Every experiment in this repo must be reproducible from a counter-derived
seed (rng::derive_word in src/rng/xoshiro.h).  Ambient entropy
sources -- std::random_device, C rand()/srand() -- silently break rerun
identity, so this script fails CI when one appears outside an explicitly
annotated site.

A use that is genuinely meant to be non-deterministic (e.g. a shard
folding process entropy into its batch verifier's RLC seed) is suppressed
by placing the marker comment on the offending line or the line above it:

    // seed-audit: allow(<reason>)

Exit status: 0 when clean, 1 when violations are found.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

SCAN_DIRS = ("src", "tests", "bench", "examples")
SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}

# std::random_device, or C rand()/srand() as a whole token.  Identifiers
# merely ending in "rand" (operand, brand, ...) must not match.
PATTERNS = (
    ("std::random_device", re.compile(r"\bstd\s*::\s*random_device\b")),
    ("rand()/srand()", re.compile(r"(?<![\w:])s?rand\s*\(")),
)

ALLOW = re.compile(r"//\s*seed-audit:\s*allow\b")


def scan_file(path: pathlib.Path) -> list[tuple[int, str, str]]:
    violations = []
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    for idx, line in enumerate(lines):
        for label, pattern in PATTERNS:
            if not pattern.search(line):
                continue
            prev = lines[idx - 1] if idx > 0 else ""
            if ALLOW.search(line) or ALLOW.search(prev):
                continue
            violations.append((idx + 1, label, line.strip()))
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "root",
        nargs="?",
        default=pathlib.Path(__file__).resolve().parent.parent,
        type=pathlib.Path,
        help="repository root to scan (default: this script's repo)",
    )
    args = parser.parse_args()

    failed = False
    scanned = 0
    for sub in SCAN_DIRS:
        base = args.root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SUFFIXES or not path.is_file():
                continue
            scanned += 1
            for lineno, label, text in scan_file(path):
                failed = True
                rel = path.relative_to(args.root)
                print(f"{rel}:{lineno}: unseeded randomness ({label}): {text}")

    if failed:
        print(
            "\nseed-audit: FAILED -- derive randomness from an explicit seed"
            " (see rng::derive_word in src/rng/xoshiro.h), or annotate"
            " intentional entropy with '// seed-audit: allow(<reason>)'.",
            file=sys.stderr,
        )
        return 1
    print(f"seed-audit: OK ({scanned} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
