"""Command-line front end.

Three command groups: `form` (exterior algebra and duals), `geom`
(connections, relations, captured records), `pde` (characteristics).  Each
of the 19 subcommands is one handler function named after its group and
subcommand (`form_d`, `pde_hj`, ...).  `build_parser` registers every
handler next to its input flags with argparse `set_defaults(handler=...)`,
so the table of subcommands is the parser itself; `main` checks the flags
and calls the chosen handler.  All inputs are exform/v1 JSON documents.

Every subcommand takes --seed and --out; the other flags go only to the
subcommands that read them, and any other flag is an argparse usage error:

  --trials, --tol   form closure, form cr, form harmonic, form antiderivative,
                    geom relation (and --tol alone: pde classify)
  --quad-order      form stokes
  --steps           pde charpit, pde hj, pde caustics
  --format          pde charpit, pde hj

This module is the only code in the package that writes files, and every
file goes through `_write_text`, atomically (write, then rename).  JSON
artifacts go through `_write_json`, which adds the `"schema": "exform/v1"`
envelope.  They and the `events.jsonl` log are strict JSON: a non-finite
float is written as the string "inf", "-inf" or "nan".  Strips are CSV or
JSON (`--format`).  `_write_verdict` alone writes the sampled verdicts
(`form closure`, `form cr`, `form harmonic`, `geom relation`): one boolean
per verdict, `max_residual`, the `trials`, `tol` and `seed` that replay it
byte for byte, and any residual texts.

Exit codes: 0 success, 1 assertion failure (--assert-closed on an unclosed
form), 2 schema/input violation (a form of the wrong degree, or an expression
too deep or too long for the recursive tree passes, included), 3 math domain
error.  All randomness flows from the single configured seed; two runs with
identical inputs and configuration produce byte-identical artifacts.

Seed precedence: --seed flag, then the EXFORM_SEED environment variable,
then 42.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import charpde, dual, evolution, expr as ex, forms, schemas
from .schemas import SCHEMA_VERSION, SchemaError

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_SCHEMA = 2
EXIT_MATH = 3

class AssertionFailure(ex.ExformError):
    """A requested --assert-closed check failed."""


def _check_args(args) -> None:
    """Check the flags the subcommand has; a missing --seed is resolved in place."""
    if args.seed is None:
        env = os.environ.get("EXFORM_SEED")
        try:
            args.seed = ex.DEFAULT_SEED if env is None else int(env)
        except ValueError:
            raise SchemaError(f"EXFORM_SEED must be an integer, got {env!r}") from None
    if any(getattr(args, name, 1) < 1 for name in ("trials", "quad_order", "steps")):
        raise SchemaError("trials, quad-order, and steps must be >= 1")
    if not getattr(args, "tol", 1.0) > 0:
        raise SchemaError("tolerance must be positive")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _strict(obj):
    """obj with every non-finite float as the string "inf", "-inf" or "nan"."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _json_text(obj, indent=None) -> str:
    return json.dumps(_strict(obj), sort_keys=True, indent=indent, allow_nan=False)


def _write_json(path: Path, obj: dict) -> None:
    """An exform/v1 artifact: obj inside the schema envelope, strict JSON."""
    _write_text(path, _json_text({"schema": SCHEMA_VERSION, **obj}, indent=2) + "\n")


def _write_verdict(args, name: str, extra=None, **residuals) -> tuple[bool, float]:
    """Write the verdict record `name`; return (all verdicts hold, max residual)."""
    sampled = {k: forms.form_residual(f, args.trials, args.seed)
               for k, f in residuals.items()}
    verdicts = {k: ex.is_zero_residual(r, args.tol) for k, r in sampled.items()}
    worst = max(sampled.values())
    _write_json(args.out / name, {**verdicts, "max_residual": worst, "trials": args.trials,
                                  "tol": args.tol, "seed": args.seed, **(extra or {})})
    return all(verdicts.values()), worst


def _write_strip(path: Path, fan: charpde.Fan, k: int, fmt: str) -> None:
    """Strip k of the fan, one row per sample: s, t (= s), x1..xn, u, p1..pn, F_drift."""
    n = fan.n
    columns = (["s", "t"] + [f"x{i + 1}" for i in range(n)] + ["u"]
               + [f"p{i + 1}" for i in range(n)] + ["F_drift"])
    rows = np.column_stack([fan.s, fan.s, fan.states[:, k], fan.drift[:, k]]).tolist()
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(map(repr, row)) for row in rows]
        _write_text(path.with_suffix(".csv"), "\n".join(lines) + "\n")
    else:
        _write_json(path.with_suffix(".json"), {"columns": columns, "rows": rows})


def _load_form(path, what: str = "form") -> forms.DifferentialForm:
    return schemas.form_from_json(schemas.load_json_file(path), what)


def _load_connection(path, what: str = "connection") -> evolution.Connection:
    return schemas.connection_from_json(schemas.load_json_file(path), what)


def _parse_point(text: str, dim: int) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise SchemaError(f"bad point {text!r}: need comma-separated numbers") from None
    if not all(map(math.isfinite, values)):
        raise SchemaError(f"bad point {text!r}: need finite numbers")
    if len(values) != dim:
        raise SchemaError(f"point {text!r} has {len(values)} components, need {dim}")
    return values


# ---------------------------------------------------------------------------
# form commands


def form_d(args) -> None:
    theta = _load_form(args.input)
    result = forms.exterior_derivative(theta)
    _write_json(args.out / "form_d.json", schemas.form_to_json(result))
    print(f"d: degree {theta.degree} -> {result.degree}, {len(result.coeffs)} terms")


def form_wedge(args) -> None:
    a = _load_form(args.a, "a")
    b = _load_form(args.b, "b")
    result = forms.wedge(a, b)
    _write_json(args.out / "form_wedge.json", schemas.form_to_json(result))
    print(f"wedge: degrees {a.degree}+{b.degree}, {len(result.coeffs)} terms")


def form_commutator(args) -> None:
    comm = forms.commutator_1form(_load_form(args.input))
    _write_json(args.out / "form_commutator.json", schemas.commutator_to_json(comm))
    print(f"commutator: {len(comm.entries)} nonzero entries")


def form_closure(args) -> None:
    closed, residual = _write_verdict(
        args, "form_closure.json",
        closed=forms.exterior_derivative(_load_form(args.input)))
    print(f"{'CLOSED' if closed else 'UNCLOSED'} max residual {residual!r}")
    if args.assert_closed and not closed:
        raise AssertionFailure("closure assertion failed")


def form_star(args) -> None:
    theta = _load_form(args.input)
    result = dual.hodge_star(theta)
    _write_json(args.out / "form_star.json", schemas.form_to_json(result))
    print(f"star: degree {theta.degree} -> {result.degree}")


def form_cr(args) -> None:
    doc = schemas.load_json_file(args.input)
    schemas.check_version(doc, "cr")
    chart = schemas.chart_from_json(doc.get("chart"), "cr")
    if chart.dim != 2:
        raise SchemaError("cr: chart must have exactly 2 coordinates")
    u = schemas.coeff_from_json(doc.get("u"), chart, "cr.u")
    v = schemas.coeff_from_json(doc.get("v"), chart, "cr.v")
    first, second = dual.cauchy_riemann_residuals(u, v)
    _write_verdict(args, "form_cr.json", {"first": str(first), "second": str(second)},
                   first_zero=forms.scalar_form(first),
                   second_zero=forms.scalar_form(second))
    print(f"cr residuals: {first} | {second}")


def form_harmonic(args) -> None:
    f = schemas.scalar_from_json(schemas.load_json_file(args.input))
    residual = dual.harmonic_residual(f)
    harmonic, _ = _write_verdict(args, "form_harmonic.json", {"residual": str(residual)},
                                 harmonic=forms.scalar_form(residual))
    print(f"{'HARMONIC' if harmonic else 'NOT HARMONIC'} residual {residual}")


def form_stokes(args) -> None:
    theta = _load_form(args.form, "form")
    cell = schemas.cell_from_json(schemas.load_json_file(args.cell), theta.chart)
    inner = forms.integrate_form(forms.exterior_derivative(theta), cell,
                                 args.quad_order)
    outer = forms.boundary_integral(theta, cell, args.quad_order)
    _write_json(args.out / "form_stokes.json", {
        "cell_integral": inner, "boundary_integral": outer,
        "residual": abs(inner - outer), "quadrature_order": args.quad_order,
    })
    print(f"stokes residual {abs(inner - outer)!r}")


def form_antiderivative(args) -> None:
    theta = _load_form(args.input)
    dim = theta.chart.dim
    field = forms.antiderivative(theta, _parse_point(args.base, dim), args.trials,
                                 args.tol, args.seed)
    if args.at:
        points = [_parse_point(text, dim) for text in args.at]
    else:
        points = np.random.default_rng(args.seed).uniform(-1.0, 1.0, (5, dim)).tolist()
    samples = [{"point": list(point),
                "coefficients": {",".join(map(str, i)): v
                                 for i, v in field.coefficients_at(point).items()}}
               for point in points]
    _write_json(args.out / "form_antiderivative.json", {
        "degree": field.degree, "base": list(field.base), "samples": samples,
    })
    print(f"antiderivative: degree {field.degree}, {len(samples)} sample points")


# ---------------------------------------------------------------------------
# geom commands


def geom_torsion(args) -> None:
    conn = _load_connection(args.input)
    # each antisymmetric (mu, nu) pair once, mu < nu
    entries = [{"rho": r, "mu": m, "nu": nu, "coeff": str(c)}
               for r, pairs in enumerate(evolution.torsion(conn))
               for (m, nu), c in pairs.entries.items() if not ex.is_zero_const(c)]
    _write_json(args.out / "geom_torsion.json",
                {"chart": list(conn.chart.names), "entries": entries})
    print(f"torsion: {len(entries)} nonzero entries")


def geom_curvature(args) -> None:
    conn = _load_connection(args.input)
    r = evolution.curvature(conn)
    # each antisymmetric (rho, sigma) pair once, rho < sigma
    entries = [{"mu": mu, "nu": nu, "rho": rho, "sigma": sg, "coeff": str(c)}
               for mu, row in enumerate(r) for nu, pairs in enumerate(row)
               for (rho, sg), c in pairs.entries.items() if not ex.is_zero_const(c)]
    _write_json(args.out / "geom_curvature.json",
                {"chart": list(conn.chart.names), "entries": entries})
    print(f"curvature: {len(entries)} nonzero entries")


def geom_evcommutator(args) -> None:
    comm = evolution.evolutionary_commutator(_load_form(args.omega, "omega"),
                                             _load_connection(args.gamma, "gamma"))
    total = comm.total()
    _write_json(args.out / "geom_evcommutator.json", schemas.commutator_to_json(total))
    _write_json(args.out / "geom_evcommutator_terms.json", {
        "flat": schemas.commutator_to_json(comm.flat)["entries"],
        "basis": schemas.commutator_to_json(comm.basis)["entries"],
    })
    print(f"evcommutator: {len(total.entries)} nonzero entries")


def geom_relation(args) -> None:
    rel = evolution.NonidenticalRelation(_load_form(args.psi, "psi"),
                                         _load_form(args.omega, "omega"))
    identical, worst = _write_verdict(args, "geom_relation.json",
                                      identical=rel.residual_form())
    print(f"{'IDENTICAL' if identical else 'NONIDENTICAL'} max residual {worst!r}")


def geom_bistructure(args) -> None:
    doc = schemas.load_json_file(args.input)
    schemas.check_version(doc, "bistructure")
    omega = schemas.form_from_json(doc.get("omega"), "bistructure.omega")
    conn = None
    if doc.get("gamma") is not None:
        conn = schemas.connection_from_json(doc["gamma"], "bistructure.gamma")
    psi = None
    if doc.get("psi") is not None:
        psi = schemas.form_from_json(doc["psi"], "bistructure.psi")
    point = schemas.doc_numbers(doc.get("point"), 'bistructure: "point"', omega.chart.dim)
    try:
        ps = evolution.Pseudostructure(doc.get("kind", "level-set"), dim=1)
    except ValueError as err:
        raise SchemaError(f"bistructure: {err}") from None
    event = evolution.DegeneracyEvent(tuple(point))
    record = evolution.capture_bistructure(event, omega, conn, ps, psi=psi)
    _write_text(args.out / "events.jsonl", _json_text(record.to_json_obj()) + "\n")
    print(f"bistructure: discrete {record.discrete_change!r}, "
          f"deformation {record.deformation_measure!r}")


# ---------------------------------------------------------------------------
# pde commands


def pde_charpit(args) -> None:
    doc = schemas.load_json_file(args.input)
    pde = schemas.pde_from_json(doc, "charpit")
    initial = doc.get("initial")
    if not isinstance(initial, dict):
        raise SchemaError("charpit: \"initial\" object with x, u, p required")
    init = (schemas.doc_numbers(initial.get("x"), 'charpit: "initial.x"', pde.n),
            schemas.doc_number(initial.get("u"), 'charpit: "initial.u"'),
            schemas.doc_numbers(initial.get("p"), 'charpit: "initial.p"', pde.n))
    s_end = schemas.doc_number(doc.get("s_end", 1.0), 'charpit: "s_end"')
    steps = schemas.doc_integer(doc.get("steps", args.steps), 'charpit: "steps"', 1)
    try:
        fan = charpde.integrate_strips(pde, [init], s_end, steps)
    except charpde.OffSurfaceError as err:
        raise SchemaError(f"charpit: {err}") from None
    _write_strip(args.out / "charpit_strip", fan, 0, args.format)
    print(f"charpit: {len(fan.s)} samples, max |F| drift {fan[0].max_drift!r}")


def _solve_fan(args, cmd: str):
    """Load the document of `pde hj` or `pde caustics` and solve its fan.

    Returns the document, the solution, and the summary fields both commands
    report: steps, t_end and the caustic events."""
    doc = schemas.load_json_file(args.input)
    hj, u0 = schemas.hj_from_json(doc, cmd)
    grid = schemas.grid_from_json(doc.get("grid"), f"{cmd}.grid")
    t_end = schemas.doc_number(doc.get("t_end", 1.0), f'{cmd}: "t_end"')
    steps = schemas.doc_integer(doc.get("steps", args.steps), f'{cmd}: "steps"', 1)
    solution = charpde.solve_hj(hj, u0, grid, t_end, steps)
    events = [{"t_star": e.t_star, "x0": e.x0, "x_star": e.x_star,
               "strip_index": e.strip_index} for e in solution.events]
    return doc, solution, {"steps": steps, "t_end": t_end, "events": events}


def pde_hj(args) -> None:
    doc, solution, summary = _solve_fan(args, "hj")
    summary["strips"] = len(solution.strips)
    summary["max_drift"] = float(np.max(np.abs(solution.strips.drift)))
    line = f"hj: {len(solution.strips)} strips, max drift {summary['max_drift']!r}"
    if isinstance(doc.get("oracle_u"), str):
        oracle = schemas.coeff_from_json(doc["oracle_u"],
                                         charpde.hj_chart(solution.hj.n), "hj.oracle_u")
        # (t, x1, p1) at every sample of the fan, strip by strip
        states = np.stack(np.broadcast_arrays(solution.t, solution.x.T,
                                              solution.p.T), axis=-1)
        ref = ex.evaluate_many(oracle, states.reshape(-1, 3))
        worst = float(np.max(np.abs(solution.u.T.ravel() - ref)))
        summary["max_error_vs_oracle"] = worst
        line += f", max error vs oracle {worst!r}"
    for k in range(len(solution.strips)):
        _write_strip(args.out / f"hj_strip_{k:03d}", solution.strips, k, args.format)
    _write_json(args.out / "hj_summary.json", summary)
    if solution.events:
        _write_json(args.out / "hj_events.json", {"events": summary["events"]})
    print(line)


def pde_caustics(args) -> None:
    _, solution, summary = _solve_fan(args, "caustics")
    _write_json(args.out / "events.json", {"events": summary["events"]})
    if solution.events:
        first = min(e.t_star for e in solution.events)
        print(f"caustics: {len(solution.events)} events, earliest t* = {first!r}")
    else:
        print("caustics: no events")


def _doc_grid(rows, what: str) -> np.ndarray:
    """A 2-D array of finite numbers: a non-empty JSON list of equal rows."""
    if not isinstance(rows, list) or not rows:
        raise SchemaError(f"{what} must be a 2-D array: a list of rows of numbers")
    width = len(rows[0]) if isinstance(rows[0], list) else None
    return np.array([schemas.doc_numbers(row, f"{what}[{i}]", width)
                     for i, row in enumerate(rows)])


def pde_classify(args) -> None:
    doc = schemas.load_json_file(args.input)
    schemas.check_version(doc, "classify")
    p1, p2 = (_doc_grid(doc.get(key), f'classify: "{key}"') for key in ("p1", "p2"))
    if p1.shape != p2.shape:
        raise SchemaError("classify: p1 and p2 must be equal-shape 2-D arrays")
    spacing = schemas.doc_numbers(doc.get("spacing"), 'classify: "spacing"', 2)
    tol = schemas.doc_number(doc["tol"], 'classify: "tol"') if "tol" in doc else args.tol
    if not tol > 0:  # the rule --tol obeys
        raise SchemaError(f"classify: \"tol\" must be positive, got {tol!r}")
    try:
        result = charpde.classify_derivative_field(np.stack([p1, p2], axis=2),
                                                   spacing, tol)
    except charpde.FanError as err:
        raise SchemaError(f"classify: {err}") from None
    _write_json(args.out / "pde_classify.json", {
        "kind": result.kind, "max_abs": result.max_abs,
        "location": list(result.location), "tol": tol,
    })
    print(f"{result.kind.upper()} max |K| = {result.max_abs!r} at {result.location}")


def pde_bracket(args) -> None:
    doc = schemas.load_json_file(args.input)
    schemas.check_version(doc, "bracket")
    n = schemas.doc_integer(doc.get("n"), 'bracket: "n"', 1)
    chart = charpde.hj_chart(n)
    bracket = charpde.poisson_bracket(
        schemas.coeff_from_json(doc.get("E"), chart, "bracket.E"),
        schemas.coeff_from_json(doc.get("V"), chart, "bracket.V"))
    _write_json(args.out / "pde_bracket.json", {"bracket": str(bracket)})
    print(str(bracket))


# ---------------------------------------------------------------------------
# parser: the table of subcommands


# the flags a subcommand takes besides --seed, --out and its input files
OPTIONS = {
    "--trials": dict(type=int, default=ex.DEFAULT_TRIALS),
    "--tol": dict(type=float, default=ex.DEFAULT_TOL),
    "--quad-order": dict(type=int, default=forms.DEFAULT_QUAD_ORDER),
    "--steps": dict(type=int, default=1000),
    "--format": dict(choices=("json", "csv"), default="csv",
                     help="strip artifact format"),
    "--assert-closed": dict(action="store_true",
                            help="exit 1 when the closure check reports UNCLOSED"),
    "--base": dict(required=True, help="comma-separated base point"),
    "--at": dict(action="append", help="evaluation point (repeatable)"),
}
ZERO_TEST = ("--trials", "--tol")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: EXFORM_SEED or 42)")
    common.add_argument("--out", type=Path, default="out", help="output directory")

    parser = argparse.ArgumentParser(prog="exform")
    groups = parser.add_subparsers(dest="group", required=True)

    def group(name, help):
        return groups.add_parser(name, help=help).add_subparsers(
            dest="subcommand", required=True)

    def command(subcommands, name, handler, *inputs, flags=()):
        """Register one subcommand: its handler, its required input files and
        the OPTIONS flags it reads."""
        p = subcommands.add_parser(name, parents=[common])
        for flag in inputs:
            p.add_argument(flag, dest="input" if flag == "--in" else None,
                           required=True)
        for flag in flags:
            p.add_argument(flag, **OPTIONS[flag])
        p.set_defaults(handler=handler)

    form = group("form", "exterior algebra and duals")
    command(form, "d", form_d, "--in")
    command(form, "wedge", form_wedge, "--a", "--b")
    command(form, "commutator", form_commutator, "--in")
    command(form, "closure", form_closure, "--in",
            flags=ZERO_TEST + ("--assert-closed",))
    command(form, "star", form_star, "--in")
    command(form, "cr", form_cr, "--in", flags=ZERO_TEST)
    command(form, "harmonic", form_harmonic, "--in", flags=ZERO_TEST)
    command(form, "stokes", form_stokes, "--form", "--cell", flags=("--quad-order",))
    command(form, "antiderivative", form_antiderivative, "--in",
            flags=ZERO_TEST + ("--base", "--at"))

    geom = group("geom", "connections and relations")
    command(geom, "torsion", geom_torsion, "--in")
    command(geom, "curvature", geom_curvature, "--in")
    command(geom, "evcommutator", geom_evcommutator, "--omega", "--gamma")
    command(geom, "relation", geom_relation, "--psi", "--omega", flags=ZERO_TEST)
    command(geom, "bistructure", geom_bistructure, "--in")

    pde = group("pde", "first-order PDE analysis")
    command(pde, "charpit", pde_charpit, "--in", flags=("--steps", "--format"))
    command(pde, "hj", pde_hj, "--in", flags=("--steps", "--format"))
    command(pde, "caustics", pde_caustics, "--in", flags=("--steps",))
    command(pde, "classify", pde_classify, "--in", flags=("--tol",))
    command(pde, "bracket", pde_bracket, "--in")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        args.handler(args)
        return EXIT_OK
    except AssertionFailure as err:
        print(f"assertion failed: {err}", file=sys.stderr)
        return EXIT_ASSERT
    except (SchemaError, forms.DegreeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except RecursionError:  # the tree passes recurse once per nesting level
        print("input error: expression too deep or too long", file=sys.stderr)
        return EXIT_SCHEMA
    except ex.ExformError as err:
        print(f"math error: {err}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
