"""The repository's benchmark (see README.md next to this file).

    python3 perfbench/run.py --workload paper_timed --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout. Repeats the workload, each repetition in
a fresh interpreter (``worker.py``), until ``--seconds`` is used up (at
least three repetitions), checks every record against the oracle, and
prints one JSON object as its last stdout line: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Metric
names and units are the ones ``BENCHMARK.json`` declares.
"""

import argparse
import copy
import json
import os
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_timed", "casestudy_timed", "casestudy_counts")
MIN_REPS = 3
#: Hard cap on one run, repetitions and checks included (seconds).
DEADLINE = 170.0
#: Allowed float drift when layer self times are summed (seconds).
RECONCILE_TOLERANCE = 1e-6


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def worker_env() -> dict:
    """The environment of a repetition: no ``REPRO_*`` overrides, so the
    library's default engines run, and one BLAS thread, matching the
    single-caller ``jobs=1`` load."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_rep(args, traced: bool, spot_check: bool, timeout: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed)]
    if traced:
        command.append("--traced")
    if spot_check:
        command.append("--spot-check")
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"repetition failed (exit {proc.returncode}):\n"
                         + proc.stderr[-4000:])
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("repetition printed no result:\n"
                         + proc.stdout[-2000:] + proc.stderr[-2000:])
    rep["traced"] = traced
    rep["elapsed_s"] = time.monotonic() - spawned_at
    return rep


def run_reps(args, oracle_known: bool) -> list:
    """Closed loop, one caller: the next repetition starts when the last
    ends, and none starts that would not finish inside ``--seconds``
    (judged by the longest so far) once ``MIN_REPS`` are done."""
    reps = []
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        longest = max((r["elapsed_s"] - r.get("spot_check_s", 0.0)
                       for r in reps), default=0.0)
        if len(reps) >= MIN_REPS and elapsed + longest > args.seconds:
            break
        if elapsed + longest > DEADLINE:
            if len(reps) < MIN_REPS:
                raise BenchError(f"only {len(reps)} repetitions fit in "
                                 f"{DEADLINE:.0f} s")
            break
        index = len(reps)
        # Traced runs alternate traced and untraced repetitions so the
        # tracing overhead is measured within one run.
        traced = bool(args.trace) and index % 2 == 0
        reps.append(run_rep(args, traced,
                            spot_check=index == 0 and not oracle_known,
                            timeout=DEADLINE - elapsed))
        rep = reps[-1]
        if traced:
            print(f"rep {index}: wall {rep['wall_s']:.3f} s, setup "
                  f"{rep['setup_s']:.3f} s (traced)", flush=True)
        else:
            print(f"rep {index}: wall {rep['wall_s']:.3f} s "
                  f"({rep['wall_s'] * rep['wall_scale']:.3f} rescaled), "
                  f"setup {rep['setup_s']:.3f} s "
                  f"({rep['setup_s'] * rep['setup_scale']:.3f} rescaled)",
                  flush=True)
    return reps


def check_records(reps: list, reference: dict) -> tuple:
    """Compare every repetition's digests with the reference.

    Items are records plus one attack outcome per phase. Returns
    (attempted, failed, problems).
    """
    attempted = failed = 0
    problems = []
    for index, rep in enumerate(reps):
        phases = rep["digests"]["phases"]
        if len(phases) != len(reference["phases"]):
            raise BenchError(f"rep {index}: {len(phases)} phases, expected "
                             f"{len(reference['phases'])}")
        for got, want in zip(phases, reference["phases"]):
            label = f"{want['policy']}/M={want['subwarps']}"
            items = list(zip(got["records"] + [got["attack"]],
                             want["records"] + [want["attack"]]))
            missing = len(want["records"]) - len(got["records"])
            attempted += len(want["records"]) + 1
            bad = sum(1 for a, b in items if a != b) + max(0, missing)
            if bad:
                failed += bad
                problems.append(f"rep {index} {label}: {bad} item(s) "
                                f"differ from the reference")
    return attempted, failed, problems


def spot_check_reference(rep: dict) -> tuple:
    """Reference digests from a repetition that the oracle spot-checked:
    the repetition's own digests, with every sample the oracle disagrees
    with replaced by the oracle's digest (so it fails in every rep)."""
    reference = copy.deepcopy(rep["digests"])
    checked = 0
    for check in rep["spot_checks"]:
        records = reference["phases"][check["phase"]]["records"]
        for sample, digest in zip(check["samples"], check["oracle"]):
            records[sample] = digest
            checked += 1
    return reference, checked


def end_to_end(reps: list, pass_rate: float) -> dict:
    """Medians over the untraced repetitions, each host time rescaled by
    the host speed sampled across it (see host_probe.py)."""
    plain = [r for r in reps if not r["traced"]]
    print(f"as measured: wall {median(r['wall_s'] for r in plain):.4f} s, "
          f"setup {median(r['setup_s'] for r in plain):.4f} s, slice "
          f"{1000 * median(r['slice_s'] for r in plain):.3f} ms")
    return {
        "wall_s": median(r["wall_s"] * r["wall_scale"] for r in plain),
        "accesses_per_s": median(r["accesses"] / r["collect_s"]
                                 / r["wall_scale"] for r in plain),
        "setup_s": median(r["setup_s"] * r["setup_scale"] for r in plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "record_pass_rate": pass_rate,
    }


def per_layer(reps: list, problems: list) -> dict:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    for index, rep in enumerate(traced):
        accounted = sum(rep["self_times"].values())
        wall = rep["layers"]["trace.wall_s"]
        if abs(accounted - wall) > RECONCILE_TOLERANCE:
            problems.append(f"traced rep {index}: self times sum to "
                            f"{accounted} s, traced wall is {wall} s")
        if rep["counts"] != traced[0]["counts"]:
            problems.append(f"traced rep {index}: per-layer counts differ "
                            f"from the first traced rep")
    layers = {name: median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers["cli.import_s"] = median(r["import_s"] for r in reps)
    layers["host.probe_s"] = median(r["slice_s"] for r in plain)
    layers["trace.overhead_s"] = (
        median(r["layers"]["trace.wall_s"] for r in traced)
        - median(r["wall_s"] for r in plain))
    return layers


def summarize_trace(reps: list) -> None:
    """Human-readable lines: where the traced wall time went."""
    traced = [r for r in reps if r["traced"]]
    self_times = {name: median(r["self_times"].get(name, 0.0)
                               for r in traced)
                  for name in traced[0]["self_times"]}
    wall = median(r["layers"]["trace.wall_s"] for r in traced)
    for name, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
        print(f"  self {name:32s} {seconds:9.4f} s "
              f"{100 * seconds / wall:5.1f}%")
    reasons = traced[0]["counts"]["fallback_reasons"]
    print(f"  engine fallback reasons: {reasons or 'none'}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/repro to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    oracle = json.loads((HERE / "oracle.json").read_text())
    known = oracle.get(args.workload, {}).get(str(args.seed))

    try:
        reps = run_reps(args, oracle_known=known is not None)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if known is not None:
        reference, checked = known, "all records (committed oracle)"
    else:
        reference, count = spot_check_reference(reps[0])
        checked = f"{count} records re-simulated on the oracle engine"
    try:
        attempted, failed, problems = check_records(reps, reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"oracle: {checked}; {failed}/{attempted} items failed")

    if args.trace:
        values = per_layer(reps, problems)
        summarize_trace(reps)
        declared = spec["per_layer"]
    else:
        values = end_to_end(reps, 1.0 - failed / attempted)
        declared = spec["end_to_end"]
    for problem in problems:
        print(f"problem: {problem}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
