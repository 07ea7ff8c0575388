"""One workload process: import exform, warm up, then run operations.

    python3 perfbench/worker.py --workload fan --seed 1 --seconds 10 \
        --mode run --trace 0 --out result.json

``--mode setup`` stops after the warm-up and reports only the set-up time.
``--probes 1`` also runs the workload's defect probes, untimed, after the
timed operations.
Run from the repository root: exform is imported from ``src/``.  Results,
including a compact digest of every output, go to ``--out`` as JSON; the
parent process checks the digests against references.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import clock  # noqa: E402  (needs HERE on the path)


def import_exform(root: str):
    """Import exform from the checkout's src/, and refuse any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import exform
    if not os.path.abspath(exform.__file__).startswith(src + os.sep):
        raise SystemExit(f"exform was imported from {exform.__file__}, not {src}")
    return exform


def resident_high_water_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--probes", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    calibrations = [(time.perf_counter(), clock.calibrate())]
    start = t_setup = time.perf_counter()
    exform = import_exform(root)
    import_s = time.perf_counter() - start
    # the workload's own modules and inputs are not part of set-up time
    wl = importlib.import_module(f"workloads.{args.workload}")
    warm = wl.warmup_ops(args.seed)
    start = time.perf_counter()
    runner = wl.Runner(args.seed)
    for spec in warm:
        try:
            runner.run(spec)
        except exform.ExformError:
            pass
    setup_raw = import_s + time.perf_counter() - start
    calibrations.append((time.perf_counter(), clock.calibrate()))
    result = {"setup_s": clock.normalise([(t_setup, setup_raw)], calibrations, 0.0)[0],
              "setup_raw_s": setup_raw,
              "backend": exform._kernels.backend_name(),
              "numpy": importlib.import_module("numpy").__version__}
    if args.mode == "run":
        result.update(run_ops(wl, runner, exform, args))
        if args.probes:
            result["probes"] = [probe(runner, spec, exform) for spec in wl.probe_ops(args.seed)]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def outcome(runner, spec, out, error, exform) -> dict:
    """The digest of an operation's output, or the error it raised, for the parent."""
    if error is not None:
        return {"error": [type(error).__name__, str(error)[:300],
                          isinstance(error, exform.ExformError)]}
    try:
        return {"digest": runner.digest(spec, out)}
    except Exception as err:  # an output the checker cannot read fails
        return {"error": [type(err).__name__, f"digest: {err}"[:300], False]}


def probe(runner, spec, exform) -> dict:
    """Run one defect probe, untimed."""
    try:
        out, error = runner.run(spec), None
    except Exception as err:  # any raise is an outcome the parent classifies
        out, error = None, err
    return dict(outcome(runner, spec, out, error, exform), id=spec["id"])


def run_ops(wl, runner, exform, args) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install("exform")
    tape_cache = exform.expr._tape_for.cache_info
    hits = misses = 0
    records, calibrations = [], []
    peak_rss_kb = None
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        if i == wl.RSS_OPS:
            peak_rss_kb = resident_high_water_kb()
        spec = wl.make_op(args.seed, i)
        calibrations.append((time.perf_counter(), clock.calibrate()))
        before = tape_cache()
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out, error = runner.run(spec), None
        except Exception as err:  # any raise is an outcome the parent classifies
            out, error = None, err
        t1 = time.perf_counter()
        if tracer:
            tracer.op = None
        after = tape_cache()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
        records.append({"id": i, "t0": t0, "raw": t1 - t0,
                        **outcome(runner, spec, out, error, exform)})
        i += 1
    calibrations.append((time.perf_counter(), clock.calibrate()))
    normalised = clock.normalise([(r["t0"], r["raw"]) for r in records], calibrations)
    for record, seconds in zip(records, normalised):
        record["s"] = seconds
    result = {"records": records,
              "peak_rss_kb": peak_rss_kb or resident_high_water_kb()}
    if tracer:
        summary = tracer.summary()
        summary["tape.cache.hits"] = hits
        summary["tape.cache.misses"] = misses
        result["trace"] = summary
        if args.spans:
            tracer.dump(args.spans)
    return result


if __name__ == "__main__":
    sys.exit(main())
