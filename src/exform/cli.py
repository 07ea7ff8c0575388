"""Command-line front end.

Three command groups: `form` (exterior algebra and duals), `geom`
(connections, relations, captured records), `pde` (characteristics).  Each
of the 19 subcommands is one handler function named after its group and
subcommand (`form_d`, `pde_hj`, ...).  `build_parser` registers every
handler next to its input flags with argparse `set_defaults(handler=...)`,
so the table of subcommands is the parser itself; `main` checks the common
flags and calls the chosen handler.  All inputs are exform/v1 JSON documents.

This module is the only code in the package that writes files, and every
file goes through `_write_text`, atomically (write, then rename).  JSON
artifacts go through `_write_json`, which adds the `"schema": "exform/v1"`
envelope.  They and the `events.jsonl` log are strict JSON: a non-finite
float is written as the string "inf", "-inf" or "nan".  Strips are CSV or
JSON (`--format`).

Exit codes: 0 success, 1 assertion failure (--assert-closed on an unclosed
form), 2 schema/input violation, 3 math domain error.  All randomness flows
from the single configured seed; two runs with identical inputs and
configuration produce byte-identical artifacts.

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

DEFAULT_SEED = 42


class AssertionFailure(ex.ExformError):
    """A requested --assert-closed check failed."""


def _check_args(args) -> None:
    """Check the common flags; a missing --seed is resolved in place."""
    if args.seed is None:
        env = os.environ.get("EXFORM_SEED")
        try:
            args.seed = DEFAULT_SEED if env is None else int(env)
        except ValueError:
            raise SchemaError(f"EXFORM_SEED must be an integer, got {env!r}") from None
    if args.trials < 1 or args.quad_order < 1 or args.steps < 1:
        raise SchemaError("trials, quad-order, and steps must be >= 1")
    if not args.tol > 0:
        raise SchemaError("tolerance must be positive")


def _doc_number(doc: dict, key: str, default, cmd: str):
    """doc[key], or default when it is absent.  "steps" must be a JSON
    integer >= 1; any other key must be a JSON number, returned as a float."""
    value = doc.get(key, default)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if key == "steps":
        if not (number and isinstance(value, int) and value >= 1):
            raise SchemaError(f"{cmd}: \"steps\" must be an integer >= 1, got {value!r}")
        return value
    if not number:
        raise SchemaError(f"{cmd}: \"{key}\" must be a number, got {value!r}")
    return float(value)


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


def _write_strip(path: Path, strip: charpde.CharacteristicStrip, fmt: str) -> None:
    """One row per sample: s, t (= s), x1..xn, u, p1..pn, F_drift."""
    n = strip.n
    columns = (["s", "t"] + [f"x{i + 1}" for i in range(n)] + ["u"]
               + [f"p{i + 1}" for i in range(n)] + ["F_drift"])
    rows = np.column_stack([strip.s, strip.s, strip.x, strip.u, strip.p,
                            strip.drift]).tolist()
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
    residual = forms.closure_residual(_load_form(args.input), args.trials, args.seed)
    # is_closed's verdict: a non-finite value is never zero, even at tol = inf
    closed = math.isfinite(residual) and residual <= args.tol
    _write_json(args.out / "form_closure.json", {
        "closed": closed, "max_residual": residual, "trials": args.trials,
        "tol": args.tol, "seed": args.seed,
    })
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
    _write_json(args.out / "form_cr.json", {
        "first": str(first), "second": str(second),
        "first_zero": ex.probably_zero(first, args.trials, args.tol, args.seed),
        "second_zero": ex.probably_zero(second, args.trials, args.tol, args.seed),
    })
    print(f"cr residuals: {first} | {second}")


def form_harmonic(args) -> None:
    f = schemas.scalar_from_json(schemas.load_json_file(args.input))
    residual = dual.harmonic_residual(f)
    harmonic = ex.probably_zero(residual, args.trials, args.tol, args.seed)
    _write_json(args.out / "form_harmonic.json",
                {"residual": str(residual), "harmonic": harmonic})
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
    t = evolution.torsion(conn)
    n = conn.chart.dim
    entries = [{"rho": r, "mu": m, "nu": nu, "coeff": str(t[r][m][nu])}
               for r in range(n) for m in range(n) for nu in range(n)
               if not ex.is_zero_const(t[r][m][nu])]
    _write_json(args.out / "geom_torsion.json",
                {"chart": list(conn.chart.names), "entries": entries})
    print(f"torsion: {len(entries)} nonzero entries")


def geom_curvature(args) -> None:
    conn = _load_connection(args.input)
    r = evolution.curvature(conn)
    n = conn.chart.dim
    entries = [{"mu": mu, "nu": nu, "rho": rho, "sigma": sg,
                "coeff": str(r[mu][nu][rho][sg])}
               for mu in range(n) for nu in range(n)
               for rho in range(n) for sg in range(n)
               if not ex.is_zero_const(r[mu][nu][rho][sg])]
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
    psi = _load_form(args.psi, "psi")
    omega = _load_form(args.omega, "omega")
    conn = _load_connection(args.gamma, "gamma") if args.gamma else None
    rel = evolution.NonidenticalRelation(psi, omega, conn)
    worst = max((ex.sampled_abs_max(coeff, args.trials, args.seed)
                 for coeff in rel.residual_form().coeffs.values()), default=0.0)
    # is_identical's verdict: a non-finite value is never zero
    identical = math.isfinite(worst) and worst <= args.tol
    _write_json(args.out / "geom_relation.json", {
        "identical": identical, "max_residual": worst, "points": args.trials,
    })
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
    point = doc.get("point")
    if (not isinstance(point, list)
            or len(point) != omega.chart.dim
            or not all(isinstance(v, (int, float)) for v in point)):
        raise SchemaError("bistructure: \"point\" must list one number per coordinate")
    try:
        ps = evolution.Pseudostructure(doc.get("kind", "level-set"), dim=1)
    except ValueError as err:
        raise SchemaError(f"bistructure: {err}") from None
    comm = evolution.evolutionary_commutator(
        omega, conn if conn is not None else evolution.Connection(omega.chart))
    event = evolution.commutator_event(comm, tuple(point))
    record = evolution.capture_bistructure(event, omega, conn, ps, psi=psi)
    _write_text(args.out / "events.jsonl", _json_text(record.to_json_obj()) + "\n")
    print(f"bistructure: discrete {record.discrete_change!r}, "
          f"deformation {record.deformation_measure!r}")


# ---------------------------------------------------------------------------
# pde commands


def pde_charpit(args) -> None:
    doc = schemas.load_json_file(args.input)
    pde = schemas.pde_from_json(doc)
    initial = doc.get("initial")
    if not isinstance(initial, dict):
        raise SchemaError("charpit: \"initial\" object with x, u, p required")
    try:
        init = (tuple(float(v) for v in initial["x"]),
                float(initial["u"]),
                tuple(float(v) for v in initial["p"]))
    except (KeyError, TypeError, ValueError):
        raise SchemaError("charpit: initial needs x (list), u, p (list)") from None
    s_end = _doc_number(doc, "s_end", 1.0, "charpit")
    steps = _doc_number(doc, "steps", args.steps, "charpit")
    try:
        strip = charpde.integrate_strip(pde, init, s_end, steps)
    except charpde.OffSurfaceError as err:
        raise SchemaError(f"charpit: {err}") from None
    _write_strip(args.out / "charpit_strip", strip, args.format)
    print(f"charpit: {strip.samples} samples, max |F| drift {strip.max_drift!r}")


def _solve_fan(args, cmd: str):
    """Load the document of `pde hj` or `pde caustics` and solve its fan.

    Returns the document, the solution, and the summary fields both commands
    report: steps, t_end and the caustic events."""
    doc = schemas.load_json_file(args.input)
    hj, u0 = schemas.hj_from_json(doc)
    grid = schemas.grid_from_json(doc.get("grid"), f"{cmd}.grid")
    t_end = _doc_number(doc, "t_end", 1.0, cmd)
    steps = _doc_number(doc, "steps", args.steps, cmd)
    solution = charpde.solve_hj(hj, u0, grid, t_end, steps)
    events = [{"t_star": e.t_star, "x0": e.x0, "x_star": e.x_star,
               "strip_index": e.strip_index} for e in solution.events]
    return doc, solution, {"steps": steps, "t_end": t_end, "events": events}


def pde_hj(args) -> None:
    doc, solution, summary = _solve_fan(args, "hj")
    summary["strips"] = len(solution.strips)
    summary["max_drift"] = max(s.max_drift for s in solution.strips)
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
    for k, strip in enumerate(solution.strips):
        _write_strip(args.out / f"hj_strip_{k:03d}", strip, args.format)
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


def pde_classify(args) -> None:
    doc = schemas.load_json_file(args.input)
    schemas.check_version(doc, "classify")
    try:
        p1 = np.asarray(doc["p1"], dtype=float)
        p2 = np.asarray(doc["p2"], dtype=float)
        spacing = tuple(float(v) for v in doc["spacing"])
    except (KeyError, TypeError, ValueError):
        raise SchemaError("classify: need p1, p2 (2-D arrays) and spacing "
                          "(two numbers)") from None
    if p1.ndim != 2 or p1.shape != p2.shape or len(spacing) != 2:
        raise SchemaError("classify: p1 and p2 must be equal-shape 2-D arrays")
    tol = _doc_number(doc, "tol", args.tol, "classify")
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
    n = doc.get("n")
    if not isinstance(n, int) or n < 1:
        raise SchemaError("bracket: \"n\" must be a positive integer")
    chart = charpde.hj_chart(n)
    bracket = charpde.poisson_bracket(
        schemas.coeff_from_json(doc.get("E"), chart, "bracket.E"),
        schemas.coeff_from_json(doc.get("V"), chart, "bracket.V"))
    _write_json(args.out / "pde_bracket.json", {"bracket": str(bracket)})
    print(str(bracket))


# ---------------------------------------------------------------------------
# parser: the table of subcommands


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: EXFORM_SEED or 42)")
    common.add_argument("--tol", type=float, default=ex.DEFAULT_TOL)
    common.add_argument("--trials", type=int, default=ex.DEFAULT_TRIALS)
    common.add_argument("--quad-order", type=int, default=forms.DEFAULT_QUAD_ORDER)
    common.add_argument("--steps", type=int, default=1000)
    common.add_argument("--out", type=Path, default="out", help="output directory")
    common.add_argument("--format", choices=("json", "csv"), default="csv",
                        help="strip artifact format")

    parser = argparse.ArgumentParser(prog="exform")
    groups = parser.add_subparsers(dest="group", required=True)

    def group(name, help):
        return groups.add_parser(name, help=help).add_subparsers(
            dest="subcommand", required=True)

    def command(subcommands, name, handler, *inputs):
        """Register one subcommand: its handler and its required input files."""
        p = subcommands.add_parser(name, parents=[common])
        for flag in inputs:
            p.add_argument(flag, dest="input" if flag == "--in" else None,
                           required=True)
        p.set_defaults(handler=handler)
        return p

    form = group("form", "exterior algebra and duals")
    command(form, "d", form_d, "--in")
    command(form, "wedge", form_wedge, "--a", "--b")
    command(form, "commutator", form_commutator, "--in")
    p = command(form, "closure", form_closure, "--in")
    p.add_argument("--assert-closed", action="store_true",
                   help="exit 1 when the closure check reports UNCLOSED")
    command(form, "star", form_star, "--in")
    command(form, "cr", form_cr, "--in")
    command(form, "harmonic", form_harmonic, "--in")
    command(form, "stokes", form_stokes, "--form", "--cell")
    p = command(form, "antiderivative", form_antiderivative, "--in")
    p.add_argument("--base", required=True, help="comma-separated base point")
    p.add_argument("--at", action="append", help="evaluation point (repeatable)")

    geom = group("geom", "connections and relations")
    command(geom, "torsion", geom_torsion, "--in")
    command(geom, "curvature", geom_curvature, "--in")
    command(geom, "evcommutator", geom_evcommutator, "--omega", "--gamma")
    p = command(geom, "relation", geom_relation, "--psi", "--omega")
    p.add_argument("--gamma")
    command(geom, "bistructure", geom_bistructure, "--in")

    pde = group("pde", "first-order PDE analysis")
    command(pde, "charpit", pde_charpit, "--in")
    command(pde, "hj", pde_hj, "--in")
    command(pde, "caustics", pde_caustics, "--in")
    command(pde, "classify", pde_classify, "--in")
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
    except SchemaError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except ex.ExformError as err:
        print(f"math error: {err}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
