#!/usr/bin/env python3
"""Whole-solve benchmark of the px stencil workloads.

Run from the repository root:

    python3 pxbench/run.py --workload heat1d_dist --seed 1 --seconds 15 --trace 0
    python3 pxbench/run.py --self-test

Builds pxbench/ (and through it the px libraries under src/) into
$CARGO_TARGET_DIR/pxbench (default .bench_build/pxbench), runs one workload
in one process and prints a human-readable report followed, on the last
line, by one JSON object: correct, attempted, failed and the metrics that
BENCHMARK.json declares (end_to_end with --trace 0, per_layer with
--trace 1). The full report, with the host and build fingerprint, goes to
.bench_out/report-<workload>-seed<n>-trace<t>.json and the Chrome trace of
a traced run to .bench_out/trace-<workload>.json.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 175  # one run, build excluded

# Which end-to-end metric each per-layer metric should move, and where.
PREDICTIONS = {
    "stencil.kernel_us_per_step": "glups on jacobi2d_dist; little on heat1d_dist (exposes halo wait)",
    "stencil.kernel_share": "glups on jacobi2d_dist",
    "stencil.alloc_init_s": "solve_s, peak_rss_mib on jacobi2d_shm only",
    "simd.encode_s": "solve_s on jacobi2d_shm only",
    "simd.decode_s": "solve_s on jacobi2d_shm only",
    "stencil.sweep_s": "solve_s on jacobi2d_shm only",
    "stencil.sweep_glups": "solve_s on jacobi2d_shm only",
    "stencil.roofline_frac_dram": "solve_s on jacobi2d_shm only",
    "runtime.timer_late_us_p50": "solve_s on heat1d_dist",
    "runtime.timer_late_us_p99": "solve_s on heat1d_dist",
    "parcel.roundtrip_us_p50": "solve_s on heat1d_dist",
    "parcel.roundtrip_us_p99": "solve_s on heat1d_dist",
    "serial.halo_roundtrip_ns": "solve_s on heat1d_dist",
    "agas.resolve_name_ns": "solve_s on heat1d_dist",
    "dist.exposed_comm_us_per_step": "solve_s on heat1d_dist; near 0 on jacobi2d_dist (derived: step time - kernel)",
    "net.acks_per_parcel": "solve_s on heat1d_dist_lossy; none on heat1d_dist",
    "net.retransmits": "solve_s on heat1d_dist_lossy; none on heat1d_dist",
    "net.spurious_retransmits": "solve_s on heat1d_dist_lossy; none on heat1d_dist",
    "net.useful_frame_ratio": "solve_s on heat1d_dist_lossy; none on heat1d_dist",
}


def fail(msg):
    print(f"pxbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s: {' '.join(cmd)}"
    return proc.returncode, out


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "pxbench"


def build():
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1),
                  "--target", "pxbench_run", "pxbench_selftest"])
    for cmd in steps:
        code, out = run(cmd, max(1.0, deadline - time.monotonic()))
        (bdir / "pxbench-build.log").write_text(out or "")
        if code != 0:
            if code is not None and not (bdir / "pxbench_run").exists():
                # A failed first configure must not leave a cache behind.
                (bdir / "CMakeCache.txt").unlink(missing_ok=True)
            fail("build failed:\n" + "\n".join((out or "").splitlines()[-25:]))
    return bdir


def compile_flags(bdir, source_suffix):
    try:
        for entry in json.loads((bdir / "compile_commands.json").read_text()):
            if entry["file"].endswith(source_suffix):
                args = entry.get("command", "").split()
                return " ".join(a for a in args[1:] if a.startswith("-") and
                                not a.startswith(("-I", "-o", "-c", "-M")))
    except (OSError, ValueError, KeyError):
        pass
    return "unknown"


def cache_value(bdir, key):
    try:
        for line in (bdir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*")) + \
        sorted(p for p in HERE.rglob("*") if "__pycache__" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    code, out = run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], 10)
    return out.strip() if code == 0 else "unknown"


def fingerprint(bdir, host):
    build = {
        "git_sha": git_sha(),
        "source_sha256_16": source_digest(),
        "build_type": cache_value(bdir, "CMAKE_BUILD_TYPE"),
        "px_torture_option": cache_value(bdir, "PX_TORTURE"),
        "bench_flags": compile_flags(bdir, "pxbench/main.cpp"),
        "reference_flags": compile_flags(bdir, "pxbench/reference.cpp"),
        "library_flags": compile_flags(bdir, "src/px/stencil/heat1d_distributed.cpp"),
    }
    return {"host": host, "build": build}


def report_lines(res, spec, fp, trace):
    d = res["details"]
    lines = [f"== pxbench {res['workload']} seed={res['seed']} trace={trace}"]
    h, b = fp["host"], fp["build"]
    lines.append(f"host: {h['cpu_model']}, nproc {h['nproc']}, {h['physical_cores']} cores, "
                 f"{h['numa_domains']} NUMA, L1d {h['l1d_kib']:.0f} KiB, L2 {h['l2_kib']:.0f} KiB, "
                 f"L3 {h['l3_kib']:.0f} KiB")
    lines.append(f"build: {h['compiler']}, {b['build_type']}, git {b['git_sha']}, "
                 f"source {b['source_sha256_16']}, PX_TORTURE={h['px_torture']:.0f}, "
                 f"assertions {h['assertions']}")
    lines.append(f"flags: pxbench_run [{b['bench_flags']}]")
    lines.append(f"flags: library [{b['library_flags']}]")
    lines.append(f"threads: {h['thread_budget']:.0f} ({h['thread_budget_formula']}), "
                 f"main thread blocked in sync_wait")
    lines.append(f"solves: {d['solves_attempted']:.0f} attempted (warm-up included), "
                 f"{d['solves_failed']:.0f} failed; output check {d['tolerance']}")
    if d["errors"]:
        lines.append(f"errors: {d['errors'][:2000]}")
    counts = d["counts_per_solve"]
    pinned = ", ".join(f"{k}={counts[k][0] if counts.get(k) else '?'}" for k in d["pinned_counts"])
    lines.append(f"pinned counts (identical in every solve): {pinned}"
                 + (f"; MISMATCH in {d['unstable_counts']}" if d["unstable_counts"] else ""))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in sorted(res["metrics"].items()):
        unit = units.get(name, m["unit"])
        value = "inf" if m["value"] is None else f"{m['value']:.6g}"
        if trace:
            extra = f"  <- moves {PREDICTIONS[name]}" if name in PREDICTIONS else ""
            lines.append(f"  {name:32s} {value} {unit}{extra}")
        else:
            lines.append(f"  {name:32s} {value} {unit} (n={m['samples']:.0f})")
    if not trace:
        lines.append(f"  solve_s p{d['solve_s_tail_q']:.0f} = {d['solve_s_tail']:.6g} s, "
                     f"min {d['solve_s_min']:.6g} s")
    else:
        lines.append(f"traced solves: {d['traced_solves']:.0f}, benchmark spans: {d['spans']:.0f}, "
                     f"trace slices dropped: {d['trace_dropped']:.0f}")
    if d["notes"]:
        lines.append(f"notes: {d['notes']}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    bdir = build()
    if args.self_test:
        code, out = run([str(bdir / "pxbench_selftest")], RUN_BUDGET_S)
        print(out)
        sys.exit(0 if code == 0 else 1)
    if not args.workload:
        fail("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    cmd = [str(bdir / "pxbench_run"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", str(OUT / f"trace-{args.workload}.json")]
    code, out = run(cmd, RUN_BUDGET_S)
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (AttributeError, IndexError, ValueError):
        fail(f"no result from pxbench_run (exit {code}):\n{out}")

    fp = fingerprint(bdir, res.pop("host"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            fail(f"metric {m['name']} missing from pxbench_run's result")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**res, "fingerprint": fp}, indent=1))
    for line in report_lines(res, spec, fp, args.trace):
        print(line)
    print(json.dumps({"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    sys.exit(0 if code == 0 and res["correct"] else 1)


if __name__ == "__main__":
    main()
