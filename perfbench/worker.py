"""One benchmark repetition in a fresh interpreter.

Started by ``run.py`` once per repetition, so every repetition pays the
import and starts with empty caches, as a user's ``rcoal <experiment>``
does. Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T \
        [--traced] [--spot-check]
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before the spawn")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spot-check", action="store_true",
                        help="re-simulate seed-chosen records on the oracle")
    args = parser.parse_args()

    from host_probe import SLICE_REFERENCE_S, HostSampler
    # Traced repetitions are not sampled: the slices would land inside
    # the spans. They report no end-to-end metric.
    sampler = None if args.traced else HostSampler()
    clock = time.perf_counter if sampler is None else sampler.clock
    if sampler is not None:
        sampler.start()

    sys.path.insert(0, str(ROOT / "src"))
    started = clock()
    import repro.cli  # noqa: F401  (what every CLI invocation pays)
    import_s = clock() - started
    import repro
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from this checkout")

    import bench_workloads as bw

    workload = bw.WORKLOADS[args.workload]
    ctx = bw.context(workload, args.seed)
    tracer = None
    if args.traced:
        from bench_trace import Tracer
        tracer = Tracer()
        tracer.install()
    ready_at = time.monotonic()
    result = {"import_s": import_s}
    if sampler is not None:
        ready_at -= sampler.overhead_s
        setup_end = sampler.mark()
        result["setup_scale"] = sampler.scale(0, setup_end)

    campaign_dir = OUT_DIR / f"campaign-{workload.name}-{os.getpid()}"
    started = clock()
    try:
        if tracer is not None:
            with tracer.root():
                output = bw.run(workload, ctx, campaign_dir, clock)
        else:
            output = bw.run(workload, ctx, campaign_dir, clock)
        wall_s = clock() - started
    finally:
        shutil.rmtree(campaign_dir, ignore_errors=True)
    if sampler is not None:
        sampler.stop()
        result["wall_scale"] = sampler.scale(setup_end, sampler.mark())
        result["slice_s"] = SLICE_REFERENCE_S / result["wall_scale"]
        result["sampling_s"] = sampler.overhead_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result.update({
        "setup_s": ready_at - args.spawned_at,
        "wall_s": wall_s,
        "collect_s": output.collect_s,
        "accesses": output.accesses,
        "peak_rss_mb": peak_rss_mb,
        "digests": bw.digests(output),
    })
    if tracer is not None:
        tracer.unwrap()
        result["layers"] = tracer.report()
        result["self_times"] = tracer.self_times()
        result["counts"] = tracer.count_signature()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}.json")
    if args.spot_check:
        spot_started = time.perf_counter()
        checks = []
        for index, phase in enumerate(output.phases):
            picked = bw.spot_check_indices(workload, args.seed, index)
            expected = bw.oracle_records(workload, args.seed, index, picked)
            checks.append({"phase": index, "samples": picked,
                           "oracle": expected})
        result["spot_checks"] = checks
        result["spot_check_s"] = time.perf_counter() - spot_started
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
