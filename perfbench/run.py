#!/usr/bin/env python3
"""Benchmark of the geoalg verifier through its command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass is one `geoalg` command in a
fresh interpreter (`child.py`), one at a time.  A round runs every command
of the workload once, in an order drawn from the seed; rounds repeat while
another one fits in S seconds (at least one round).  Every pass is checked
against `oracle.py`.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
untraced and traced rounds alternate and the metrics are the per-layer
ones.  The full record goes to `perfbench/results/BENCH_*.json`, spans of
traced passes to `perfbench/results/TRACE_*.jsonl`.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import oracle
from probe import reference_mean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
PASS_TIMEOUT_S = 150
SETUP_PROBES = 11
# `probe.reference()` on a quiet host; times are reported at this speed
REFERENCE_S = 0.001


def _verify(suite, **opts):
    argv = ["verify", "--suite", suite]
    for key, value in opts.items():
        argv += [f"--{key}", str(value)]
    return argv


def _frobenius(seed):
    def check(reps, rng):
        oracle.check_frobenius(reps, oracle.KNOWN_FAULT[1] if seed == 5 else None)
    return _verify("frobenius", seed=seed), check


# workload -> [(argv, check(reports, rng))]
WORKLOADS = {
    "verify-all": [
        (_verify("all"), lambda reps, rng: oracle.check_verify_all(reps)),
    ],
    "exact-closure": [
        (_verify("ks", n=4, level=2),
         lambda reps, rng: oracle.check_ks(reps, 4, 2)),
        (_verify("jacobi", n=3, level=2),
         lambda reps, rng: oracle.check_jacobi(reps, 3, 2)),
    ],
    "frontier": [
        (_verify("yangian", n=4, level=2),
         lambda reps, rng: oracle.check_yangian(reps, [4])),
        (["centers", "--alg", "an", "--n", "8"],
         lambda reps, rng: oracle.check_centers_an(reps, 8, rng)),
        (_verify("goldman", n=7),
         lambda reps, rng: oracle.check_goldman(reps, 7)),
    ],
    "realization": [_frobenius(s) for s in range(6)],
}

SUITES = ("goldman", "ks", "jacobi", "braid", "yangian", "centers",
          "reduction", "frobenius")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("GEOALG_THREADS", "PYTHONPATH", "PYTHONSTARTUP")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_pass(argv, mode="-") -> dict:
    """Run one command in a fresh interpreter and time it (see child.py)."""
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(mode)] + argv,
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass {argv} died with code {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    res = json.loads(lines[-1])
    res["setup_s"] = res.pop("t_main") - t_spawn
    res["argv"] = argv
    return res


def judge(res, argv, check, rng) -> str:
    """'ok', 'fault' (the known failing case) or 'wrong'."""
    fault = argv == oracle.KNOWN_FAULT[0]
    try:
        check(res["reports"], rng)
    except oracle.Wrong as exc:
        res["error"] = str(exc)
        return "wrong"
    failing = any(r["status"] != "pass" for r in res["reports"])
    if res["rc"] != (1 if failing else 0):
        res["error"] = f"exit code {res['rc']}"
        return "wrong"
    return "fault" if fault and failing else "ok"


def run_round(commands, order, mode, rng) -> list:
    """One pass of every command; results are kept in command order."""
    out = [None] * len(commands)
    for idx in order:
        argv, check = commands[idx]
        res = run_pass(argv, mode)
        res["status"] = judge(res, argv, check, rng)
        out[idx] = {k: v for k, v in res.items() if k != "reports"} | {
            "verdicts": len(res["reports"]),
            "suite_s": _suite_seconds(res["reports"]),
            "speed": REFERENCE_S / res["reference_s"],
        }
    return out


def _suite_seconds(reports) -> dict:
    out = {}
    for rep in reports:
        out[rep["suite"]] = out.get(rep["suite"], 0.0) + rep["ms"] / 1000
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def quiet_wall(p) -> float:
    """The pass's wall time at the reference host speed (see README)."""
    return p["wall_s"] * p["speed"]


def setup_probe(argv) -> float:
    """Set-up time of one pass, at the reference host speed of the moments
    just before and just after it."""
    before = reference_mean()
    res = run_pass(argv, "setup")
    return res["setup_s"] * 2 * REFERENCE_S / (before + res["reference_s"])


def end_to_end(rounds, ncmd, setups) -> dict:
    walls = [_median([quiet_wall(r[c]) for r in rounds]) for c in range(ncmd)]
    verdicts = sum(_median([r[c]["verdicts"] for r in rounds])
                   for c in range(ncmd))
    wall = sum(walls)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "checks_per_s": {"value": verdicts / wall, "unit": "1/s"},
        "setup_s": {"value": _median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(_median([r[c]["peak_rss_mb"]
                                              for r in rounds])
                                     for c in range(ncmd)), "unit": "MB"},
    }


# per-layer metric -> unit; the README maps each to what it should move
PER_LAYER = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
_RATIOS = {
    "dn_algebra.pair_bracket.distinct_ratio":
        ("dn_algebra.pair_bracket.distinct", "dn_algebra.pair_bracket.calls"),
    "frobenius.points.accepted_ratio":
        ("frobenius.points.accepted", "frobenius.points.calls"),
}


def _round_layers(rnd) -> dict:
    sums = {}
    for p in rnd:
        for key, value in p["layers"].items():
            if key.endswith(("max_terms", "max_n")):
                sums[key] = max(sums.get(key, 0), value)
            else:
                if key.endswith(("_s", ".s")):  # at reference host speed
                    value *= p["speed"]
                sums[key] = sums.get(key, 0) + value
    for key, (num, den) in _RATIOS.items():
        sums[key] = sums.get(num, 0) / sums[den] if sums.get(den) else 0.0
    return sums


def per_layer(plain, traced) -> dict:
    layers = [_round_layers(r) for r in traced]
    values = {name: _median([lay.get(name, 0) for lay in layers])
              for name in PER_LAYER}
    for s in SUITES:
        values[f"cli.suite.{s}.s"] = _median(
            [sum(p["suite_s"].get(s, 0.0) * p["speed"] for p in r)
             for r in plain])
    # only `verify` reports carry the time of their cases
    values["cli.overhead_s"] = _median(
        [sum(quiet_wall(p) - sum(p["suite_s"].values()) * p["speed"]
             for p in r if p["argv"][0] == "verify") for r in plain])
    values["trace.overhead_s"] = (
        _median([sum(map(quiet_wall, r)) for r in traced])
        - _median([sum(map(quiet_wall, r)) for r in plain]))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": numpy, "nproc": len(os.sched_getaffinity(0))}


def prepare():
    """Byte-compile the program and run one small pass, untimed, so that
    every timed pass starts from warm caches, as a user's second run does."""
    if not (ROOT / "src" / "geoalg" / "cli.py").is_file():
        sys.exit(f"no geoalg sources under {ROOT / 'src'}")
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    run_pass(["stokes", "--point", "a3star"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    prepare()
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    trace_file = RESULTS / f"TRACE_{args.workload}_seed{args.seed}.jsonl"
    if args.trace:
        trace_file.unlink(missing_ok=True)

    commands = WORKLOADS[args.workload]
    # set-up alone, several times, so that its median is steady
    setups = [] if args.trace else [
        setup_probe(commands[i % len(commands)][0])
        for i in range(SETUP_PROBES)]
    rng = random.Random(args.seed)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        order = rng.sample(range(len(commands)), len(commands))
        plain.append(run_round(commands, order, "-", rng))
        if args.trace:
            traced.append(run_round(commands, order, trace_file, rng))
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
            break

    passes = [p for r in plain + traced for p in r]
    failed = sum(p["status"] != "ok" for p in passes)
    correct = all(p["status"] != "wrong" for p in passes)
    metrics = (per_layer(plain, traced) if args.trace
               else end_to_end(plain, len(commands), setups))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "correct": correct,
              "attempted": len(passes), "failed": failed,
              "metrics": metrics, "passes": passes}
    (RESULTS / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1))
    for p in passes:
        if p["status"] == "wrong":
            print(f"wrong: {' '.join(p['argv'])}: {p['error']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
