#!/usr/bin/env python3
"""Builds the benchmark program from source and runs it (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seed N]
    python3 perfbench/run.py --compare OLD.out NEW.out

Run from anywhere inside a checkout; the build goes to .bench_build/ at the
checkout root. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. --compare reads two saved
standard outputs and refuses to compare results whose host or build
fingerprints differ.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sqs_perfbench")
RUN_TIMEOUT_S = 175
# Fingerprint fields that must match for two results to be comparable; the
# commit and the seed are what a comparison is expected to vary.
HOST_FIELDS = ["nproc", "cpu_model", "compiler", "build_type", "threads",
               "workload", "trace", "seconds"]


def log(message):
    print("[perfbench] " + message, file=sys.stderr, flush=True)


def source_id():
    """The git commit of a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ beside perfbench/: run this from a full checkout")
        return False
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def read_output(path):
    fingerprint, result = None, None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "fingerprint" in record:
                fingerprint = record["fingerprint"]
            if "metrics" in record:
                result = record
    if fingerprint is None or result is None:
        raise ValueError(path + " holds no fingerprint and result")
    return fingerprint, result


def compare(old_path, new_path):
    old_fp, old = read_output(old_path)
    new_fp, new = read_output(new_path)
    differ = [k for k in HOST_FIELDS if old_fp.get(k) != new_fp.get(k)]
    if differ:
        print("NOT COMPARABLE: the results were taken on different "
              "fingerprints")
        for k in differ:
            print("  %s: %r vs %r" % (k, old_fp.get(k), new_fp.get(k)))
        return 3
    print("comparable: %s, commit %s vs %s, seed %s vs %s" %
          (new_fp["workload"], old_fp.get("commit"), new_fp.get("commit"),
           old_fp.get("seed"), new_fp.get("seed")))
    for name, entry in new["metrics"].items():
        if name not in old["metrics"]:
            print("  %-40s new metric" % name)
            continue
        a, b = old["metrics"][name]["value"], entry["value"]
        change = "" if a == 0 else "%+.2f%%" % (100.0 * (b - a) / a)
        print("  %-40s %14.6g -> %14.6g %s %s" %
              (name, a, b, entry["unit"], change))
    return 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            log("--compare wants two saved outputs")
            return 2
        return compare(argv[1], argv[2])
    if not build():
        return 2
    command = [BINARY] + argv
    if "--self-test" not in argv:
        command += ["--commit", source_id()]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
