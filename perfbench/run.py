#!/usr/bin/env python3
"""End-to-end benchmark of the DPI service's batched data path.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the service libraries from src/ plus the driver) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks the workload fingerprint, and relays the benchmark's
report. The last line of standard output is the JSON result.

    python3 perfbench/run.py --record-fingerprints

rewrites perfbench/fingerprints.json for the recorded seeds; only do that
when a change to the traffic is intended.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["web_stateless", "tcp_stateful_regex", "gzip_bodies", "heavy_matches"]
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
RECORDED_SEEDS = range(0, 33)


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(os.cpu_count() or 1)
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return None
    return os.path.join(out, "perfbench")


def fingerprint_of(binary, workload, seed):
    res = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", "0", "--fingerprint-only", "1"],
                         stdout=subprocess.PIPE, text=True, check=True)
    for line in res.stdout.splitlines():
        if line.startswith("fingerprint "):
            return line.split()[1]
    raise RuntimeError("no fingerprint printed")


def check_fingerprint(workload, seed, fingerprint):
    """The same seed must always generate the same traffic: compare with the
    recorded table and with what this checkout saw on earlier runs."""
    with open(FINGERPRINTS) as f:
        recorded = json.load(f).get(workload, {}).get(str(seed))
    if recorded is not None and recorded != fingerprint:
        return "fingerprint %s differs from the recorded %s" % (fingerprint, recorded)
    seen_dir = os.path.join(build_dir(), "fingerprints")
    os.makedirs(seen_dir, exist_ok=True)
    seen_path = os.path.join(seen_dir, "%s-%d" % (workload, seed))
    if os.path.exists(seen_path):
        with open(seen_path) as f:
            seen = f.read().strip()
        if seen != fingerprint:
            return "fingerprint %s differs from an earlier run's %s" % (fingerprint, seen)
    else:
        with open(seen_path, "w") as f:
            f.write(fingerprint + "\n")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-fingerprints", action="store_true")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2

    if args.record_fingerprints:
        table = {w: {str(s): fingerprint_of(binary, w, s) for s in RECORDED_SEEDS}
                 for w in WORKLOADS}
        with open(FINGERPRINTS, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
            f.write("\n")
        return 0

    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-%d.json" % (args.workload, args.seed))]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.splitlines()
    if res.returncode != 0:
        sys.stderr.write("\n".join(lines) + "\nperfbench: exited with %d\n" % res.returncode)
        return 1
    fingerprint = next((l.split()[1] for l in lines if l.startswith("fingerprint ")), None)
    problem = "no fingerprint printed" if fingerprint is None else \
        check_fingerprint(args.workload, args.seed, fingerprint)
    if problem is not None:
        sys.stderr.write("perfbench: %s for %s seed %d\n" % (problem, args.workload, args.seed))
        return 3
    json.loads(lines[-1])  # the result line must parse
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
