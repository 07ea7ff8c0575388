"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from workloads import cli, fan, symbolic, verdicts  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seconds="1.5", cwd=REPO):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


# ---------------------------------------------------------------------------
# smoke runs: every named metric is printed, with its unit


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end_metrics(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload == "fan":
        assert "strip_steps_per_s" in proc.stdout


def test_smoke_traced_metrics():
    proc = run_bench("verdicts", 1, seconds="2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["expr.sample.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# every checker rejects a planted wrong answer


def test_verdict_checker_rejects_flipped_label():
    for i in range(len(verdicts.CATEGORIES)):
        spec = verdicts.make_op(5, i)
        if spec["cat"] in ("stokes", "antideriv"):
            continue
        assert verdicts.check(spec, {"out": spec["expect"]}) is None
        assert verdicts.check(spec, {"out": not spec["expect"]}) is not None


def test_verdict_checker_rejects_wrong_numbers():
    stokes = verdicts.make_op(5, verdicts.CATEGORIES.index("stokes"))
    assert verdicts.check(stokes, {"out": 1e-12}) is None
    assert verdicts.check(stokes, {"out": 1e-3}) is not None
    assert verdicts.check(stokes, {"out": math.nan}) is not None
    anti = verdicts.make_op(5, verdicts.CATEGORIES.index("antideriv"))
    exact = gen.evaluate(anti["f"], anti["at"]) - gen.evaluate(anti["f"], anti["base"])
    assert verdicts.check(anti, {"out": exact}) is None
    assert verdicts.check(anti, {"out": exact + 1e-5}) is not None


@pytest.mark.parametrize("i", range(6))
def test_symbolic_checker_rejects_perturbed_value(i):
    spec = symbolic.make_op(4, i)
    ref = symbolic.reference(spec)
    assert symbolic.compare(ref, ref) is None
    name = next(iter(ref))
    row = next(k for k, r in enumerate(ref[name]) if any(r))
    bad = json.loads(json.dumps(ref))
    bad[name][row][0] = ref[name][row][0] * (1 + 1e-5) + 1e-5
    assert symbolic.compare(bad, ref) is not None


def _quad_fan(spec, params):
    t = np.linspace(0.0, spec["t_end"], spec["steps"] + 1)[:, None]
    x0 = np.linspace(-1.0, 1.0, spec["strips"])[None, :]
    k, m, c0, a, b = spec["k"], spec["m"], spec["c0"], params["a"], params["b"]
    p0 = k * x0 + m
    x = x0 + (a * p0 + b) * t
    u = k * x0 ** 2 / 2 + m * x0 + c0 + t * a * p0 ** 2 / 2
    p = p0 + 0 * t
    return t[:, 0], x, u, p


def test_fan_checker_rejects_drifted_strip():
    seed = 6
    spec = next(s for s in (fan.make_op(seed, i) for i in range(40))
                if s["kind"] == "quad" and s["k"] > 0 and s["strips"] == 8)
    params = fan.family(seed)["quad"][spec["system"]]
    t, x, u, p = _quad_fan(spec, params)
    drift = np.zeros_like(u)
    assert fan.check_hj(spec, params, t, x, u, p, drift, 0.0, []) == []
    u_bad = u.copy()
    u_bad[:, 3] += 1e-4 * t
    assert fan.check_hj(spec, params, t, x, u_bad, p, drift, 0.0, [])
    drift_bad = drift.copy()
    drift_bad[-1, 2] = 1e-5
    assert fan.check_hj(spec, params, t, x, u, p, drift_bad, 0.0, [])
    u_nan = u.copy()
    u_nan[-1, 0] = math.nan
    assert fan.check_hj(spec, params, t, x, u_nan, p, drift, 0.0, [])


def test_fan_checker_rejects_silent_blowup():
    spec = fan.probe_ops(6)[0]
    assert spec["kind"] == "blowup"
    s = np.linspace(0.0, spec["s_end"], spec["steps"] + 1)
    m = spec["strips"]
    nan = np.full((s.size, m), math.nan)
    problems = fan.check_charpit(spec, {}, s, np.stack([nan, nan], axis=2), nan,
                                 np.stack([nan, nan], axis=2), nan)
    assert problems


def test_cli_checker_rejects_nan_token(tmp_path):
    (tmp_path / "good.json").write_text('{"a": 1.5}\n')
    (tmp_path / "log.jsonl").write_text('{"a": 1}\n{"b": 2}\n')
    assert cli.strict_json_problems(tmp_path) == []
    (tmp_path / "bad.json").write_text('{"max_drift": NaN}\n')
    assert cli.strict_json_problems(tmp_path)
    spec = cli.make_op(1, 0)
    ok = {"code": spec["expect_code"], "bad_json": [], "stderr": [], "same": True}
    assert cli.check(spec, ok) is None
    assert cli.check(spec, dict(ok, bad_json=["bad.json: NaN"])) is not None
    assert cli.check(spec, dict(ok, same=False)) is not None
    assert cli.check(spec, dict(ok, code=3)) is not None


# ---------------------------------------------------------------------------
# the references themselves


@pytest.mark.parametrize("i", [3, 9, 15, 33])
def test_mixed_partial_reference_matches_sympy(i):
    sympy = pytest.importorskip("sympy")
    spec = symbolic.make_op(7, i)
    assert spec["task"] == "partial" and len(spec["axes"]) <= 3
    syms = sympy.symbols(spec["names"])
    f = sympy.sympify(gen.py(spec["f"], spec["names"]),
                      locals=dict(zip(spec["names"], syms)))
    d = sympy.diff(f, *[syms[a] for a in spec["axes"]])
    for point in spec["points"]:
        want = float(d.evalf(30, subs=dict(zip(syms, point))))
        got = gen.mixed_partial(spec["f"], point, spec["axes"])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_connection_reference_matches_sympy():
    sympy = pytest.importorskip("sympy")
    spec = symbolic.make_op(7, 0)
    assert spec["task"] == "curvature"
    n = spec["dim"]
    syms = sympy.symbols(spec["names"])
    gamma = {tuple(k): sympy.sympify(gen.py(t, spec["names"]),
                                     locals=dict(zip(spec["names"], syms)))
             for k, t in spec["gamma"]}
    zero = sympy.Integer(0)

    def G(a, b, d):
        return gamma.get((a, b, d), zero)

    ref = symbolic.reference(spec)
    for mu, nu, rho, sg in [(0, 1, 0, 1), (1, 2, 0, 2), (2, 0, 1, 2)]:
        entry = (sympy.diff(G(mu, nu, sg), syms[rho]) - sympy.diff(G(mu, nu, rho), syms[sg])
                 + sum(G(mu, lam, rho) * G(lam, nu, sg) - G(mu, lam, sg) * G(lam, nu, rho)
                       for lam in range(n)))
        row = ref["R"][((mu * n + nu) * n + rho) * n + sg]
        for point, got in zip(spec["points"], row):
            want = float(entry.evalf(30, subs=dict(zip(syms, point))))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_generators_are_seeded():
    for module in (fan, symbolic, verdicts, cli):
        assert module.make_op(9, 4) == module.make_op(9, 4)
        assert module.make_op(9, 4) != module.make_op(10, 4)


@pytest.mark.parametrize("module", [fan, symbolic, verdicts])
def test_defect_items_are_probes_not_timed_operations(module):
    assert not any("defect" in module.make_op(9, i) for i in range(200))
    probes = module.probe_ops(9)
    assert bool(probes) == (module is not symbolic)
    for spec in probes:
        assert spec["defect"] and spec["id"] >= module.PROBE_ID0
    assert probes == module.probe_ops(9)


def test_benchmark_file_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["fan", "symbolic", "verdicts", "cli"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert os.path.isdir(REPO / SPEC["paths"][0])
