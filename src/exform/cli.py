"""Command-line front end.

Three command groups: `form` (exterior algebra and duals), `geom`
(connections, relations, captured records), `pde` (characteristics).  All
inputs are exform/v1 JSON documents; results land in the output directory
as JSON or CSV, written atomically.

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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RunConfig:
    seed: int
    tolerance: float
    trials: int
    quadrature_order: int
    steps: int
    output_dir: Path
    format: str

    def __post_init__(self):
        if self.trials < 1 or self.quadrature_order < 1 or self.steps < 1:
            raise SchemaError("trials, quad-order, and steps must be >= 1")
        if not self.tolerance > 0:
            raise SchemaError("tolerance must be positive")
        if self.format not in ("json", "csv"):
            raise SchemaError("format must be json or csv")


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get("EXFORM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SchemaError(f"EXFORM_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        seed=_resolve_seed(args.seed),
        tolerance=args.tol,
        trials=args.trials,
        quadrature_order=args.quad_order,
        steps=args.steps,
        output_dir=Path(args.out),
        format=args.format,
    )


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


def _write_json(path: Path, obj) -> None:
    """Strict JSON: a non-finite float is written as a string."""
    _write_text(path, json.dumps(_strict(obj), sort_keys=True, indent=2,
                                 allow_nan=False) + "\n")


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
        _write_json(path.with_suffix(".json"), {
            "schema": SCHEMA_VERSION, "columns": columns, "rows": rows})


# ---------------------------------------------------------------------------
# form commands


def cmd_form(args, config: RunConfig) -> int:
    sub = args.subcommand
    out = config.output_dir
    if sub == "d":
        theta = schemas.form_from_json(schemas.load_json_file(args.input))
        result = forms.exterior_derivative(theta)
        _write_json(out / "form_d.json", schemas.form_to_json(result))
        print(f"d: degree {theta.degree} -> {result.degree}, "
              f"{len(result.coeffs)} terms")
    elif sub == "wedge":
        a = schemas.form_from_json(schemas.load_json_file(args.a), "a")
        b = schemas.form_from_json(schemas.load_json_file(args.b), "b")
        result = forms.wedge(a, b)
        _write_json(out / "form_wedge.json", schemas.form_to_json(result))
        print(f"wedge: degrees {a.degree}+{b.degree}, {len(result.coeffs)} terms")
    elif sub == "commutator":
        theta = schemas.form_from_json(schemas.load_json_file(args.input))
        comm = forms.commutator_1form(theta)
        _write_json(out / "form_commutator.json", schemas.commutator_to_json(comm))
        print(f"commutator: {len(comm.entries)} nonzero entries")
    elif sub == "closure":
        theta = schemas.form_from_json(schemas.load_json_file(args.input))
        residual = forms.closure_residual(theta, config.trials, config.seed)
        # is_closed's verdict: a non-finite value is never zero, even at tol = inf
        closed = math.isfinite(residual) and residual <= config.tolerance
        _write_json(out / "form_closure.json", {
            "schema": SCHEMA_VERSION, "closed": closed, "max_residual": residual,
            "trials": config.trials, "tol": config.tolerance, "seed": config.seed,
        })
        print(f"{'CLOSED' if closed else 'UNCLOSED'} max residual {residual!r}")
        if args.assert_closed and not closed:
            raise AssertionFailure("closure assertion failed")
    elif sub == "star":
        theta = schemas.form_from_json(schemas.load_json_file(args.input))
        result = dual.hodge_star(theta)
        _write_json(out / "form_star.json", schemas.form_to_json(result))
        print(f"star: degree {theta.degree} -> {result.degree}")
    elif sub == "cr":
        doc = schemas.load_json_file(args.input)
        schemas.check_version(doc, "cr")
        chart = schemas.chart_from_json(doc.get("chart"), "cr")
        if chart.dim != 2:
            raise SchemaError("cr: chart must have exactly 2 coordinates")
        u = schemas.coeff_from_json(doc.get("u"), chart, "cr.u")
        v = schemas.coeff_from_json(doc.get("v"), chart, "cr.v")
        first, second = dual.cauchy_riemann_residuals(u, v)
        first_zero = ex.probably_zero(first, config.trials, config.tolerance, config.seed)
        second_zero = ex.probably_zero(second, config.trials, config.tolerance, config.seed)
        _write_json(out / "form_cr.json", {
            "schema": SCHEMA_VERSION,
            "first": str(first), "second": str(second),
            "first_zero": first_zero, "second_zero": second_zero,
        })
        print(f"cr residuals: {first} | {second}")
    elif sub == "harmonic":
        f = schemas.scalar_from_json(schemas.load_json_file(args.input))
        residual = dual.harmonic_residual(f)
        harmonic = ex.probably_zero(residual, config.trials, config.tolerance,
                                    config.seed)
        _write_json(out / "form_harmonic.json", {
            "schema": SCHEMA_VERSION, "residual": str(residual),
            "harmonic": harmonic,
        })
        print(f"{'HARMONIC' if harmonic else 'NOT HARMONIC'} residual {residual}")
    elif sub == "stokes":
        theta = schemas.form_from_json(schemas.load_json_file(args.form), "form")
        cell = schemas.cell_from_json(schemas.load_json_file(args.cell),
                                      theta.chart)
        inner = forms.integrate_form(forms.exterior_derivative(theta), cell,
                                     config.quadrature_order)
        outer = forms.boundary_integral(theta, cell, config.quadrature_order)
        _write_json(out / "form_stokes.json", {
            "schema": SCHEMA_VERSION, "cell_integral": inner,
            "boundary_integral": outer, "residual": abs(inner - outer),
            "quadrature_order": config.quadrature_order,
        })
        print(f"stokes residual {abs(inner - outer)!r}")
    elif sub == "antiderivative":
        theta = schemas.form_from_json(schemas.load_json_file(args.input))
        base = _parse_point(args.base, theta.chart.dim)
        field = forms.antiderivative(theta, base, config.trials,
                                     config.tolerance, config.seed)
        if args.at:
            points = [_parse_point(text, theta.chart.dim) for text in args.at]
        else:
            rng = np.random.default_rng(config.seed)
            points = [tuple(map(float, row))
                      for row in rng.uniform(-1.0, 1.0, size=(5, theta.chart.dim))]
        samples = []
        for point in points:
            coeffs = field.coefficients_at(point)
            samples.append({
                "point": list(point),
                "coefficients": {",".join(map(str, i)): v for i, v in coeffs.items()},
            })
        _write_json(out / "form_antiderivative.json", {
            "schema": SCHEMA_VERSION, "degree": field.degree,
            "base": list(field.base), "samples": samples,
        })
        print(f"antiderivative: degree {field.degree}, {len(samples)} sample points")
    else:  # pragma: no cover
        raise SchemaError(f"unknown form subcommand {sub!r}")
    return EXIT_OK


def _parse_point(text: str, dim: int) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise SchemaError(f"bad point {text!r}: need comma-separated numbers") from None
    if len(values) != dim:
        raise SchemaError(f"point {text!r} has {len(values)} components, need {dim}")
    return values


# ---------------------------------------------------------------------------
# geom commands


def cmd_geom(args, config: RunConfig) -> int:
    sub = args.subcommand
    out = config.output_dir
    if sub == "torsion":
        conn = schemas.connection_from_json(schemas.load_json_file(args.input))
        t = evolution.torsion(conn)
        n = conn.chart.dim
        entries = [{"rho": r, "mu": m, "nu": nu, "coeff": str(t[r][m][nu])}
                   for r in range(n) for m in range(n) for nu in range(n)
                   if not ex.is_zero_const(t[r][m][nu])]
        _write_json(out / "geom_torsion.json", {
            "schema": SCHEMA_VERSION, "chart": list(conn.chart.names),
            "entries": entries,
        })
        print(f"torsion: {len(entries)} nonzero entries")
    elif sub == "curvature":
        conn = schemas.connection_from_json(schemas.load_json_file(args.input))
        r = evolution.curvature(conn)
        n = conn.chart.dim
        entries = [{"mu": mu, "nu": nu, "rho": rho, "sigma": sg,
                    "coeff": str(r[mu][nu][rho][sg])}
                   for mu in range(n) for nu in range(n)
                   for rho in range(n) for sg in range(n)
                   if not ex.is_zero_const(r[mu][nu][rho][sg])]
        _write_json(out / "geom_curvature.json", {
            "schema": SCHEMA_VERSION, "chart": list(conn.chart.names),
            "entries": entries,
        })
        print(f"curvature: {len(entries)} nonzero entries")
    elif sub == "evcommutator":
        omega = schemas.form_from_json(schemas.load_json_file(args.omega), "omega")
        conn = schemas.connection_from_json(schemas.load_json_file(args.gamma),
                                            "gamma")
        comm = evolution.evolutionary_commutator(omega, conn)
        _write_json(out / "geom_evcommutator.json",
                    schemas.commutator_to_json(comm.total()))
        _write_json(out / "geom_evcommutator_terms.json", {
            "schema": SCHEMA_VERSION,
            "flat": schemas.commutator_to_json(comm.flat)["entries"],
            "basis": schemas.commutator_to_json(comm.basis)["entries"],
        })
        print(f"evcommutator: {len(comm.total().entries)} nonzero entries")
    elif sub == "relation":
        psi = schemas.form_from_json(schemas.load_json_file(args.psi), "psi")
        omega = schemas.form_from_json(schemas.load_json_file(args.omega), "omega")
        conn = None
        if args.gamma:
            conn = schemas.connection_from_json(schemas.load_json_file(args.gamma),
                                                "gamma")
        rel = evolution.NonidenticalRelation(psi, omega, conn)
        worst = max((ex.sampled_abs_max(coeff, config.trials, config.seed)
                     for coeff in rel.residual_form().coeffs.values()), default=0.0)
        # is_identical's verdict: a non-finite value is never zero
        identical = math.isfinite(worst) and worst <= config.tolerance
        _write_json(out / "geom_relation.json", {
            "schema": SCHEMA_VERSION, "identical": identical,
            "max_residual": worst, "points": config.trials,
        })
        print(f"{'IDENTICAL' if identical else 'NONIDENTICAL'} "
              f"max residual {worst!r}")
    elif sub == "bistructure":
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
            raise SchemaError("bistructure: \"point\" must list one number per "
                              "coordinate")
        kind = doc.get("kind", "level-set")
        try:
            ps = evolution.Pseudostructure(kind, dim=1)
        except ValueError as err:
            raise SchemaError(f"bistructure: {err}") from None
        comm = evolution.evolutionary_commutator(
            omega, conn if conn is not None else evolution.Connection(omega.chart))
        event = evolution.commutator_event(comm, tuple(point))
        record = evolution.capture_bistructure(event, omega, conn, ps, psi=psi)
        evolution.write_event_log([record], out / "events.jsonl")
        print(f"bistructure: discrete {record.discrete_change!r}, "
              f"deformation {record.deformation_measure!r}")
    else:  # pragma: no cover
        raise SchemaError(f"unknown geom subcommand {sub!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# pde commands


def cmd_pde(args, config: RunConfig) -> int:
    sub = args.subcommand
    out = config.output_dir
    if sub == "charpit":
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
        s_end = float(doc.get("s_end", 1.0))
        steps = int(doc.get("steps", config.steps))
        try:
            strip = charpde.integrate_strip(pde, init, s_end, steps)
        except charpde.OffSurfaceError as err:
            raise SchemaError(f"charpit: {err}") from None
        _write_strip(out / "charpit_strip", strip, config.format)
        print(f"charpit: {strip.samples} samples, max |F| drift "
              f"{strip.max_drift!r}")
    elif sub in ("hj", "caustics"):
        doc = schemas.load_json_file(args.input)
        hj, u0 = schemas.hj_from_json(doc)
        grid = schemas.grid_from_json(doc.get("grid"), f"{sub}.grid")
        t_end = float(doc.get("t_end", 1.0))
        steps = int(doc.get("steps", config.steps))
        solution = charpde.solve_hj(hj, u0, grid, t_end, steps)
        events_obj = {
            "schema": SCHEMA_VERSION,
            "events": [{"t_star": e.t_star, "x0": e.x0, "x_star": e.x_star,
                        "strip_index": e.strip_index} for e in solution.events],
        }
        if sub == "caustics":
            _write_json(out / "events.json", events_obj)
            if solution.events:
                first = min(e.t_star for e in solution.events)
                print(f"caustics: {len(solution.events)} events, "
                      f"earliest t* = {first!r}")
            else:
                print("caustics: no events")
            return EXIT_OK
        summary: dict = {
            "schema": SCHEMA_VERSION,
            "strips": len(solution.strips),
            "steps": steps, "t_end": t_end,
            "max_drift": max(s.max_drift for s in solution.strips),
            "events": events_obj["events"],
        }
        if isinstance(doc.get("oracle_u"), str):
            oracle = schemas.coeff_from_json(doc["oracle_u"],
                                             charpde.hj_chart(hj.n), "hj.oracle_u")
            # (t, x1, p1) at every sample of the fan, strip by strip
            states = np.stack(np.broadcast_arrays(solution.t, solution.x.T,
                                                  solution.p.T), axis=-1)
            ref = ex.evaluate_many(oracle, states.reshape(-1, 3))
            worst = np.max(np.abs(solution.u.T.ravel() - ref))
            summary["max_error_vs_oracle"] = float(worst)
        for k, strip in enumerate(solution.strips):
            _write_strip(out / f"hj_strip_{k:03d}", strip, config.format)
        _write_json(out / "hj_summary.json", summary)
        if solution.events:
            _write_json(out / "hj_events.json", events_obj)
        line = f"hj: {len(solution.strips)} strips, max drift {summary['max_drift']!r}"
        if "max_error_vs_oracle" in summary:
            line += f", max error vs oracle {summary['max_error_vs_oracle']!r}"
        print(line)
    elif sub == "classify":
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
        tol = float(doc.get("tol", config.tolerance))
        try:
            result = charpde.classify_derivative_field(
                np.stack([p1, p2], axis=2), spacing, tol)
        except charpde.FanError as err:
            raise SchemaError(f"classify: {err}") from None
        _write_json(out / "pde_classify.json", {
            "schema": SCHEMA_VERSION, "kind": result.kind,
            "max_abs": result.max_abs, "location": list(result.location),
            "tol": tol,
        })
        print(f"{result.kind.upper()} max |K| = {result.max_abs!r} "
              f"at {result.location}")
    elif sub == "bracket":
        doc = schemas.load_json_file(args.input)
        schemas.check_version(doc, "bracket")
        n = doc.get("n")
        if not isinstance(n, int) or n < 1:
            raise SchemaError("bracket: \"n\" must be a positive integer")
        chart = charpde.hj_chart(n)
        e = schemas.coeff_from_json(doc.get("E"), chart, "bracket.E")
        v = schemas.coeff_from_json(doc.get("V"), chart, "bracket.V")
        bracket = charpde.poisson_bracket(e, v)
        _write_json(out / "pde_bracket.json", {
            "schema": SCHEMA_VERSION, "bracket": str(bracket),
        })
        print(str(bracket))
    else:  # pragma: no cover
        raise SchemaError(f"unknown pde subcommand {sub!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: EXFORM_SEED or 42)")
    common.add_argument("--tol", type=float, default=ex.DEFAULT_TOL)
    common.add_argument("--trials", type=int, default=ex.DEFAULT_TRIALS)
    common.add_argument("--quad-order", type=int, default=forms.DEFAULT_QUAD_ORDER)
    common.add_argument("--steps", type=int, default=1000)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--format", choices=("json", "csv"), default="csv",
                        help="strip artifact format")
    common.add_argument("--assert-closed", action="store_true",
                        help="exit 1 when a closure check reports UNCLOSED")

    parser = argparse.ArgumentParser(prog="exform")
    groups = parser.add_subparsers(dest="group", required=True)

    form = groups.add_parser("form", help="exterior algebra and duals")
    form_sub = form.add_subparsers(dest="subcommand", required=True)
    for name in ("d", "commutator", "closure", "star", "cr", "harmonic",
                 "antiderivative"):
        p = form_sub.add_parser(name, parents=[common])
        p.add_argument("--in", dest="input", required=True)
        if name == "antiderivative":
            p.add_argument("--base", required=True,
                           help="comma-separated base point")
            p.add_argument("--at", action="append", default=None,
                           help="evaluation point (repeatable)")
        p.set_defaults(handler=cmd_form)
    p = form_sub.add_parser("wedge", parents=[common])
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=cmd_form)
    p = form_sub.add_parser("stokes", parents=[common])
    p.add_argument("--form", required=True)
    p.add_argument("--cell", required=True)
    p.set_defaults(handler=cmd_form)

    geom = groups.add_parser("geom", help="connections and relations")
    geom_sub = geom.add_subparsers(dest="subcommand", required=True)
    for name in ("torsion", "curvature", "bistructure"):
        p = geom_sub.add_parser(name, parents=[common])
        p.add_argument("--in", dest="input", required=True)
        p.set_defaults(handler=cmd_geom)
    p = geom_sub.add_parser("evcommutator", parents=[common])
    p.add_argument("--omega", required=True)
    p.add_argument("--gamma", required=True)
    p.set_defaults(handler=cmd_geom)
    p = geom_sub.add_parser("relation", parents=[common])
    p.add_argument("--psi", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--gamma", default=None)
    p.set_defaults(handler=cmd_geom)

    pde = groups.add_parser("pde", help="first-order PDE analysis")
    pde_sub = pde.add_subparsers(dest="subcommand", required=True)
    for name in ("charpit", "hj", "classify", "caustics", "bracket"):
        p = pde_sub.add_parser(name, parents=[common])
        p.add_argument("--in", dest="input", required=True)
        p.set_defaults(handler=cmd_pde)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return args.handler(args, config)
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
