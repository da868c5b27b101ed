#!/usr/bin/env python3
"""Builds olxpbench from source, runs one workload, checks its outputs and
prints its metrics.

Usage (from the root of a checkout):

  python3 bench/olxpbench/run.py --workload NAME --seed N --seconds S \
      --trace 0|1

The first run in a checkout configures and builds the benchmark (Release)
into .bench_build/; later runs only rebuild what changed. The binary's
human-readable metric lines and one JSON result line (with provenance:
nproc, compiler, build type, source id, seed, workload config, WAL file
system) are printed first. The last line is the result summary:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 the run is traced (spans written to .bench_build/traces/ and
rolled up by layers.py) and the metrics are the per_layer ones. Exits
non-zero if the build fails, a correctness check fails or the run does not
finish in time.

Stdlib only.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import layers  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH_DIR = pathlib.Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "olxpbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Per-layer metrics computed here from the span rollup (layers.py) rather
# than by the binary: (metric name, layer, denominator).
LAYER_METRICS = [
    ("layer.body.self_us_per_op", "body", "ops"),
    ("layer.session.self_us_per_op", "session", "ops"),
    ("layer.exec.self_us_per_op", "exec", "ops"),
    ("layer.sql.self_us_per_op", "sql", "ops"),
    ("layer.probe_commit.self_us_per_probe", "probe_commit", "probes"),
    ("layer.probe_poll.self_us_per_probe", "probe_poll", "probes"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, timeout, **kwargs):
    """subprocess.run in a process group of its own, so a timeout stops the
    compilers or engine threads the command started, not just the command.
    Temporary files (the compiler's) stay inside the checkout."""
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                          **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build():
    """Configures (once) and builds the olxpbench target; build output goes
    to stderr so stdout stays the benchmark's own."""
    BUILD_DIR.mkdir(exist_ok=True)
    steps = []
    # Configure until a build system exists (a failed configure leaves a
    # CMakeCache.txt but no Makefile / build.ninja).
    if not any((BUILD_DIR / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "olxpbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            proc = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                       stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"run.py: build step failed: {e}")
            return False
        if proc.returncode != 0:
            log(f"run.py: {' '.join(cmd)} exited {proc.returncode}")
            return False
    return True


def source_id():
    """Git commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return "git:" + proc.stdout.strip()
    h = hashlib.sha1()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "bench/olxpbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.suffix in (".h", ".cc", ".txt", ".py"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "sha1:" + h.hexdigest()


def run_binary(workload, seed, seconds, trace_path):
    """Runs olxpbench; returns (exit code, parsed result or None)."""
    wal_dir = BUILD_DIR / "wal" / f"{workload}-{os.getpid()}"
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--measure={seconds}", f"--wal-dir={wal_dir}"]
    if trace_path:
        cmd.append(f"--trace={trace_path}")
    try:
        proc = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log(f"run.py: olxpbench did not finish in {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        log(f"run.py: olxpbench exited {proc.returncode}")
        return proc.returncode or 1, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError as e:
        log(f"run.py: unparsable result line: {e}")
        return 1, None


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        log(f"run.py: cannot read BENCHMARK.json: {e}")
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"run.py: unknown workload {args.workload}")
        return 2
    if not build():
        return 2

    trace_path = None
    if args.trace:
        trace_dir = BUILD_DIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-{args.seed}.jsonl"
    rc, result = run_binary(args.workload, args.seed, args.seconds,
                            trace_path)
    if result is None:
        return rc

    metrics = result["metrics"]
    if trace_path:
        roll = layers.rollup(trace_path)
        layers.print_rollup(roll, out=sys.stdout)
        for name, layer, per in LAYER_METRICS:
            metrics[name] = {
                "value": roll["layers"].get(layer, 0.0) / max(roll[per], 1),
                "unit": "us"}
    result["provenance"]["source"] = source_id()
    print(json.dumps(result, sort_keys=True))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None and m["name"].startswith("op."):
            # A profile this workload does not run.
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            log(f"run.py: metric {m['name']} missing or not in {m['unit']}")
            return 2
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": out}))
    return 0 if rc == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
