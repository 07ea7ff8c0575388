"""exform benchmark: seeded closed-loop workloads, checked against references.

    python3 perfbench/run.py --workload fan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root; ``all`` runs the four workloads in turn and
prints each one's report and JSON line.  Workloads: fan, symbolic, verdicts, cli (see
perfbench/README.md for why each exists).  One client runs one operation at a
time in one process.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run plus ``trace.overhead_ratio``.  Every
operation's output is checked; each failure is printed as
``FAIL <workload> op <id>: reason`` before that line.  The defect probes
(corpus items that can trip a known exform defect) run untimed after the
timed operations; each defect they show is printed as
``DEFECT <workload> probe <id> [<defect>]: reason``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("fan", "symbolic", "verdicts", "cli")
SETUP_SAMPLES = 3        # fresh set-up processes per run, besides the run's own
WORK_DIR = ".perfbench_work"
CHILD_TIMEOUT_S = 150


def git_sha(root: str) -> str:
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(root) else "unknown"


def child_env() -> dict:
    """One client, one thread: keep numpy's BLAS pools to a single thread."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload, seed, seconds, mode, trace, work, tag, spans=None, probes=False):
    out = os.path.join(work, f"{workload}-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--trace", str(trace), "--out", out, "--probes", str(int(probes))]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload, seed, seconds, trace, work, setup_samples, spans=None, probes=False):
    """Run the workload once; setup_samples extra fresh processes time set-up."""
    if workload == "cli":
        from workloads import cli
        return cli.measure(os.getcwd(), seed, seconds, trace, work, child_env(), spans)
    setups = [run_worker(workload, seed, 0, "setup", 0, work, f"setup{k}")["setup_s"]
              for k in range(setup_samples)]
    result = run_worker(workload, seed, seconds, "run", trace, work, "run", spans, probes)
    result["setup_samples"] = setups + [result["setup_s"]]
    return result


def classify(wl, workload, seed, records):
    """Check every record; returns (failures, unexplained failures)."""
    failures, unexplained = [], 0
    for rec in records:
        spec = wl.make_op(seed, rec["id"])
        if "error" in rec:
            name, message, is_exform = rec["error"]
            reason = None if spec.get("accept_error") and is_exform \
                else f"raised {name}: {message}"
        else:
            reason = wl.check(spec, rec["digest"])
        if reason is not None:
            tag = spec.get("defect")
            failures.append((rec["id"], tag, reason))
            unexplained += tag is None
    return failures, unexplained


def latency_metrics(records) -> dict:
    lat = sorted(r["s"] for r in records)
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 \
        else [lat[0]] * 9
    return {"ops_per_s": len(lat) / math.fsum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": deciles[8] * 1e3}


def strip_steps_per_s(records) -> float:
    done = [r for r in records if "digest" in r]
    total = math.fsum(r["s"] for r in done)
    steps = sum(r["digest"].get("strip_steps", 0) for r in done)
    return steps / total if total else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(workload, seed, seconds, trace, root):
    wl = importlib.import_module(f"workloads.{workload}")
    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    spans = os.path.join(work, f"spans-{workload}-{seed}.json")
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        if trace:
            plain = measure(workload, seed, seconds / 2, 0, tmp, 0, probes=True)
            traced = measure(workload, seed, seconds / 2, 1, tmp, 0, spans)
            runs = [plain, traced]
        else:
            plain = measure(workload, seed, seconds, 0, tmp, SETUP_SAMPLES, probes=True)
            runs = [plain]
    records = [rec for run in runs for rec in run["records"]]
    failures, unexplained = classify(wl, workload, seed, records)
    probes = plain.get("probes", [])
    defects, unexplained_probes = classify(wl, workload, seed, probes)
    unexplained += unexplained_probes
    attempted, failed = len(records), len(failures)

    lines = [f"workload {workload}  seed {seed}  trace {trace}  "
             f"operations {attempted}  failed {failed}  "
             f"defect probes {len(probes)}  defects shown {len(defects)}"]
    if trace:
        metrics = layer_metrics(plain, traced)
        metrics["strip_steps_per_s"] = metric(strip_steps_per_s(plain["records"]), "1/s")
        metrics["defects.shown"] = metric(len(defects), "count")
        for name, m in metrics.items():
            lines.append(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    else:
        lm = latency_metrics(records)
        metrics = {
            "ops_per_s": metric(lm["ops_per_s"], "op/s"),
            "op_p50_ms": metric(lm["op_p50_ms"], "ms"),
            "op_p90_ms": metric(lm["op_p90_ms"], "ms"),
            "ok_ratio": metric((attempted - failed) / attempted, "1"),
            "setup_s": metric(statistics.median(plain["setup_samples"]), "s"),
            "peak_rss_mb": metric(plain["peak_rss_kb"] / 1024.0, "MiB"),
        }
        extra = {"failed_ratio": metric(failed / attempted, "1"),
                 "raw_op_p50_ms": metric(statistics.median(r["raw"] for r in records) * 1e3,
                                         "ms")}
        if workload == "fan":
            extra["strip_steps_per_s"] = metric(strip_steps_per_s(records), "1/s")
        for name, m in list(metrics.items()) + list(extra.items()):
            lines.append(f"  {name:<20} {m['value']:.6g} {m['unit']}")
    record = {"git_sha": git_sha(root), "seed": seed, "workload": workload,
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": plain.get("numpy"), "backend": plain.get("backend")}
    lines.append("record " + json.dumps(record, sort_keys=True))
    for op_id, tag, reason in failures:
        lines.append(f"FAIL {workload} op {op_id}{f' [{tag}]' if tag else ''}: {reason}")
    for op_id, tag, reason in defects:
        lines.append(f"DEFECT {workload} probe {op_id}{f' [{tag}]' if tag else ''}: {reason}")
    if unexplained:
        lines.append(f"{unexplained} failure(s) outside the known-defect classes")
    result = {"correct": unexplained == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return lines, result


def layer_metrics(plain, traced) -> dict:
    """Per-operation layer figures from the traced run, plus tracing cost."""
    n = len(traced["records"])
    summary = dict(traced["trace"])
    # spans are raw perf_counter time, so the operation time they share is too
    summary["trace.op_s"] = math.fsum(r["raw"] for r in traced["records"])
    out = {name: metric(summary.get(name, 0.0) / n, unit) for name, unit in LAYER_METRICS}
    out["trace.overhead_ratio"] = metric(
        overhead_ratio(plain["records"], traced["records"]), "1")
    return out


def overhead_ratio(plain, traced) -> float:
    common = min(len(plain), len(traced))
    a = math.fsum(r["s"] for r in plain[:common])
    b = math.fsum(r["s"] for r in traced[:common])
    return b / a if a else 0.0


LAYER_METRICS = [(name, "s/op" if name.endswith("_s") else "1/op") for name in [
    "schemas.calls", "schemas.self_s",
    "expr.parse.calls", "expr.parse.self_s",
    "expr.partial.calls", "expr.partial.self_s",
    "expr.simplify.calls", "expr.simplify.self_s", "expr.compose.self_s",
    "expr.sample.calls", "expr.sample.self_s",
    "expr.sample.points_drawn", "expr.sample.points_rejected",
    "expr.eval.calls", "expr.eval.points", "expr.eval.self_s",
    "tape.compile.calls", "tape.compile.self_s", "tape.compile.instructions",
    "tape.cache.hits", "tape.cache.misses",
    "kernels.eval.calls", "kernels.eval.points", "kernels.eval.instr_points",
    "kernels.eval.self_s",
    "kernels.rk4.calls", "kernels.rk4.strip_steps", "kernels.rk4.self_s",
    "kernels.rk4.failures",
    "forms.d.self_s", "forms.wedge.self_s", "forms.closure.self_s",
    "forms.integrate.calls", "forms.integrate.points", "forms.integrate.self_s",
    "forms.homotopy.calls", "forms.homotopy.self_s",
    "dual.calls", "dual.self_s",
    "evolution.curvature.calls", "evolution.curvature.self_s",
    "evolution.torsion.self_s", "evolution.commutator.self_s",
    "charpde.strips.self_s", "charpde.caustic.self_s", "charpde.poincare.self_s",
    "cli.import_s", "cli.main.self_s", "cli.write.self_s", "cli.write.bytes",
    "trace.op_s",
]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "exform", "__init__.py")):
        print("perfbench: src/exform not found; run from the repository root",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            lines, result = run_workload(name, args.seed, args.seconds, args.trace, root)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {name}: {err}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
