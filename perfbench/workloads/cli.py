"""`cli`: one `exform` invocation per operation, each in a fresh Python process.

Start-up (``import exform.cli`` alone takes most of a short command), schema
loading and artifact writing are measured only here.  Each of the 20
committed fixtures is run with the command the CLI tests use for it.  A cycle
of operations runs every command once, except ``pde hj`` (the CLI's main
computation, 2.5x a light command), which runs four times, in a new seeded
order.  ``pde hj`` then holds ranks 83-100% of a cycle's latencies, so the
90th percentile sits in the middle of its cluster instead of on the jump
between command groups, where it would move with every partial cycle.  Each
command gets its own seeded ``--seed``, fixed for the run, so that
consecutive invocations of one command must write byte-identical artifacts.

Checks: the expected exit code; every JSON artifact parses as strict JSON (no
NaN or Infinity tokens); artifacts are byte-identical to the previous
invocation of the same command (a command run only once in the window is run
once more, untimed, after it).  ``setup_s`` is the median fresh-process
``import exform.cli`` time over the run's invocations.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import clock
import gen

F = "fixtures/"
# (argv, expected exit code)
COMMANDS = [
    (["geom", "bistructure", "--in", F + "bistructure_event.json"], 0),
    (["pde", "bracket", "--in", F + "bracket_momentum.json"], 0),
    (["pde", "bracket", "--in", F + "bracket_self.json"], 0),
    (["form", "stokes", "--form", F + "form_unclosed.json",
      "--cell", F + "cell_unit_square.json"], 0),
    (["pde", "classify", "--in", F + "classify_field.json"], 0),
    (["geom", "curvature", "--in", F + "conn_symmetric.json"], 0),
    (["geom", "torsion", "--in", F + "conn_torsion.json"], 0),
    (["form", "cr", "--in", F + "cr_pair.json"], 0),
    (["form", "d", "--in", F + "form_curl_input.json"], 0),
    (["form", "d", "--in", F + "form_div_input.json"], 0),
    (["form", "wedge", "--a", F + "form_curl_input.json", "--b", F + "form_dx3.json"], 0),
    (["form", "closure", "--in", F + "form_exact_pair.json"], 0),
    (["form", "d", "--in", F + "form_gradient_input.json"], 0),
    (["form", "closure", "--in", F + "form_unclosed.json", "--assert-closed"], 1),
    (["geom", "relation", "--psi", F + "form_zero_psi.json",
      "--omega", F + "form_unclosed.json"], 0),
    (["form", "harmonic", "--in", F + "scalar_harmonic.json"], 0),
    (["form", "harmonic", "--in", F + "scalar_nonharmonic.json"], 0),
    (["pde", "caustics", "--in", F + "hj_focusing.json"], 0),
    (["pde", "hj", "--in", F + "hj_free_particle.json"], 0),
    (["pde", "charpit", "--in", F + "pde_eikonal.json"], 0),
]
HJ_REPEATS = 4
CYCLE = [k for k, (argv, _) in enumerate(COMMANDS)
         for _ in range(HJ_REPEATS if argv[:2] == ["pde", "hj"] else 1)]
LAUNCHER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "launcher.py")
INVOCATION_TIMEOUT_S = 60
CLI_WINDOW_S = 1.0   # pools the calibrations of the neighbouring invocations


def make_op(seed: int, i: int) -> dict:
    order = list(CYCLE)
    gen.rng_for(seed, "cycle", i // len(order)).shuffle(order)
    k = order[i % len(order)]
    argv, code = COMMANDS[k]
    exform_seed = gen.rng_for(seed, "command", k).randrange(2 ** 31)
    return {"id": i, "command": k, "argv": argv + ["--seed", str(exform_seed)],
            "expect_code": code}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json_problems(out_dir) -> list[str]:
    """Names of JSON / JSON-lines artifacts that are not strict JSON."""
    bad = []
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith((".json", ".jsonl")):
            continue
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            text = fh.read()
        docs = text.splitlines() if name.endswith(".jsonl") else [text]
        try:
            for doc in docs:
                json.loads(doc, parse_constant=_reject_constant)
        except ValueError as err:
            bad.append(f"{name}: {err}")
    return bad


def _artifacts(out_dir) -> dict:
    if not os.path.isdir(out_dir):
        return {}
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def invoke(root, spec, work, trace, env):
    """Run one invocation; returns (raw seconds, launcher result, digest, artifacts)."""
    out_dir = os.path.join(work, f"op{spec['id']}")
    result_path = os.path.join(work, f"op{spec['id']}.json")
    cmd = [sys.executable, LAUNCHER, "--trace", str(trace), "--result", result_path,
           "--op", str(spec["id"]), "--", *spec["argv"], "--out", out_dir]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env,
                          timeout=INVOCATION_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    result = {}
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
    digest = {"code": proc.returncode,
              "bad_json": strict_json_problems(out_dir) if os.path.isdir(out_dir) else [],
              "stderr": proc.stderr.strip().splitlines()[-1:] if proc.stderr else []}
    artifacts = _artifacts(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return seconds, result, digest, artifacts


def measure(root, seed, seconds, trace, work, env, spans=None) -> dict:
    """Run invocations for ``seconds``; traced children's spans go to ``spans``."""
    records, results, last, seen = [], [], {}, {}
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i == 0:
        spec = make_op(seed, i)
        t0 = time.perf_counter()
        raw, result, digest, artifacts = invoke(root, spec, work, trace, env)
        k = spec["command"]
        if k in last:
            digest["same"] = artifacts == last[k]
        last[k] = artifacts
        seen[k] = seen.get(k, 0) + 1
        records.append({"id": i, "t0": t0, "raw": raw, "digest": digest})
        results.append(result)
        i += 1
    # each child calibrates at its start and end, on the machine-wide clock
    calibrations = [c for r in results if r for c in r["calibrations"]]
    normalised = clock.normalise([(r["t0"], r["raw"]) for r in records], calibrations,
                                 CLI_WINDOW_S)
    for rec, seconds in zip(records, normalised):
        rec["s"] = seconds
    scales = [rec["s"] / rec["raw"] for rec in records]
    # a command seen once is run once more, untimed, for the byte comparison
    for rec in records:
        spec = make_op(seed, rec["id"])
        if seen[spec["command"]] == 1:
            _, _, _, again = invoke(root, dict(spec, id=-1 - rec["id"]), work, 0, env)
            rec["digest"]["same"] = again == last[spec["command"]]
    done = [(r, scale) for r, scale in zip(results, scales) if r]
    out = {"records": records,
           "setup_samples": [r["import_s"] * scale for r, scale in done],
           "peak_rss_kb": max((r["peak_rss_kb"] for r, _ in done), default=0)}
    if done:
        out.update(backend=done[0][0]["backend"], numpy=done[0][0]["numpy"])
    if trace:
        total = {}
        for r, _ in done:
            for name, value in r.get("trace", {}).items():
                total[name] = total.get(name, 0.0) + value
            total["cli.import_s"] = total.get("cli.import_s", 0.0) + r["import_s"]
        out["trace"] = total
        if spans:
            pooled = []
            for r, _ in done:  # parent indices are per child: shift them
                base = len(pooled)
                pooled += [[name, start, end, parent + base if parent >= 0 else -1, op]
                           for name, start, end, parent, op in r.get("spans", [])]
            with open(spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": pooled}, fh)
    return out


def check(spec, digest) -> str | None:
    if digest["code"] != spec["expect_code"]:
        return (f"exit code {digest['code']}, expected {spec['expect_code']}: "
                f"{' '.join(digest['stderr'])}")
    if digest["bad_json"]:
        return "not strict JSON: " + "; ".join(digest["bad_json"])
    if digest.get("same") is False:
        return "artifacts differ between consecutive invocations"
    return None
