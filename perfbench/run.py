#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
medsec library and the perfbench program in .bench_build/ (Release);
later calls only rebuild what changed. Build output goes to stderr. The
program's own output follows on stdout; its last line is the JSON result

    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The exit status is the program's: 0 when every verdict, count and
digest check passed, non-zero otherwise (and when the build fails).

Workloads:
  udp_honest    honest Schnorr sessions over loopback UDP into
                UdpFrontEnd -> ShardFleet (nproc - 2 shards)
  udp_forged    the same path with ~2% forged responses and injected
                CRC-corrupted and non-frame datagrams
  mixed_inproc  run_sharded_campaign (nproc shards) over the four-protocol
                mix on lossy in-process links, no sockets
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("udp_honest", "udp_forged", "mixed_inproc")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
