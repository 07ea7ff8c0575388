"""Versioned JSON schemas for forms, cells, connections, and equations.

Every document carries "schema": "exform/v1".  Loaders raise SchemaError
with a position or field diagnostic; emitted documents re-parse and
re-evaluate identically.
"""

from __future__ import annotations

import json
import math

from . import charpde, evolution, expr as ex, forms
from .expr import CoordinateChart, ExformError, ScalarExpr

SCHEMA_VERSION = "exform/v1"


class SchemaError(ExformError):
    """Input document violates a schema (missing fields, bad expressions)."""


def load_json_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"input file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise SchemaError(
            f"malformed JSON in {path}: {err.msg} at line {err.lineno} "
            f"column {err.colno}") from None


def check_version(obj: dict, what: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: document must be a JSON object")
    version = obj.get("schema")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"{what}: expected \"schema\": \"{SCHEMA_VERSION}\", got {version!r}")


def doc_number(value, what: str) -> float:
    """A number read from a document: a finite JSON number, returned as a
    float.  A boolean is not a number.  `what` names the value in the error,
    e.g. 'hj: "t_end"'."""
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value)):
        raise SchemaError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def doc_integer(value, what: str, low: int = 0) -> int:
    """An integer read from a document: a JSON integer >= `low`.  A boolean,
    a float (2.0 included) and a string are not integers."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= low):
        raise SchemaError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def doc_numbers(values, what: str, dim: int | None = None) -> list[float]:
    """A non-empty JSON list of finite numbers, `dim` of them when given."""
    if not isinstance(values, list) or not values or dim not in (None, len(values)):
        raise SchemaError(f"{what} must be a list of {dim or 'one or more'} numbers")
    return [doc_number(v, f"{what}[{k}]") for k, v in enumerate(values)]


def _require(obj: dict, key: str, what: str):
    if key not in obj:
        raise SchemaError(f"{what}: missing field {key!r}")
    return obj[key]


def chart_from_json(names, what: str) -> CoordinateChart:
    if (not isinstance(names, list) or not names
            or not all(isinstance(n, str) for n in names)):
        raise SchemaError(f"{what}: \"chart\" must be a non-empty list of names")
    try:
        return CoordinateChart(tuple(names))
    except ValueError as err:
        raise SchemaError(f"{what}: {err}") from None


def coeff_from_json(text, chart: CoordinateChart, what: str) -> ScalarExpr:
    """A coefficient expression string parsed over the chart."""
    if not isinstance(text, str):
        raise SchemaError(f"{what}: coefficient must be an expression string")
    try:
        return ex.parse_expr(text, chart)
    except ex.ParseError as err:
        raise SchemaError(f"{what}: {err}") from None


def form_from_json(obj: dict, what: str = "form") -> forms.DifferentialForm:
    check_version(obj, what)
    chart = chart_from_json(_require(obj, "chart", what), what)
    degree = doc_integer(_require(obj, "degree", what), f'{what}: "degree"')
    terms = _require(obj, "terms", what)
    if not isinstance(terms, list):
        raise SchemaError(f"{what}: \"terms\" must be a list")
    coeffs: dict[tuple[int, ...], ScalarExpr] = {}
    for k, term in enumerate(terms):
        where = f"{what}.terms[{k}]"
        if not isinstance(term, dict):
            raise SchemaError(f"{where}: must be an object")
        index = _require(term, "index", where)
        if not isinstance(index, list):
            raise SchemaError(f"{where}: \"index\" must be a list of integers")
        key = tuple(doc_integer(i, f'{where}: "index"[{j}]') for j, i in enumerate(index))
        coeff = coeff_from_json(_require(term, "coeff", where), chart, where)
        if key in coeffs:
            raise SchemaError(f"{where}: duplicate index {index}")
        coeffs[key] = coeff
    try:
        return forms.DifferentialForm(chart, degree, coeffs)
    except (ValueError, ex.ChartMismatchError) as err:
        raise SchemaError(f"{what}: {err}") from None


def form_to_json(form: forms.DifferentialForm) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "chart": list(form.chart.names),
        "degree": form.degree,
        "terms": [{"index": list(index), "coeff": str(coeff)}
                  for index, coeff in form.coeffs.items()],
    }


def cell_from_json(obj: dict, chart: CoordinateChart,
                   what: str = "cell") -> forms.Cell:
    check_version(obj, what)
    k = doc_integer(_require(obj, "k", what), f'{what}: "k"')
    maps = _require(obj, "maps", what)
    orientation = obj.get("orientation", 1)
    if not isinstance(maps, list) or not all(isinstance(m, str) for m in maps):
        raise SchemaError(f"{what}: \"maps\" must be a list of expression strings")
    if orientation not in (1, -1):
        raise SchemaError(f"{what}: \"orientation\" must be 1 or -1")
    pchart = forms.param_chart(k)
    parsed = [coeff_from_json(m, pchart, f"{what}.maps[{i}]")
              for i, m in enumerate(maps)]
    try:
        return forms.Cell(chart, k, tuple(parsed), orientation)
    except (ValueError, ex.ChartMismatchError) as err:
        raise SchemaError(f"{what}: {err}") from None


def connection_from_json(obj: dict, what: str = "connection") -> evolution.Connection:
    check_version(obj, what)
    chart = chart_from_json(_require(obj, "chart", what), what)
    entries = _require(obj, "gamma", what)
    if not isinstance(entries, list):
        raise SchemaError(f"{what}: \"gamma\" must be a list")
    gamma: dict[tuple[int, int, int], ScalarExpr] = {}
    for k, entry in enumerate(entries):
        where = f"{what}.gamma[{k}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: must be an object")
        key = tuple(doc_integer(_require(entry, name, where), f'{where}: "{name}"')
                    for name in ("rho", "mu", "nu"))
        if key in gamma:
            raise SchemaError(f"{where}: duplicate entry {key}")
        gamma[key] = coeff_from_json(_require(entry, "coeff", where), chart, where)
    try:
        return evolution.Connection(chart, gamma)
    except (ValueError, ex.ChartMismatchError) as err:
        raise SchemaError(f"{what}: {err}") from None


def scalar_from_json(obj: dict, what: str = "scalar") -> ScalarExpr:
    check_version(obj, what)
    chart = chart_from_json(_require(obj, "chart", what), what)
    return coeff_from_json(_require(obj, "expr", what), chart, what)


def commutator_to_json(comm: forms.Commutator1) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "chart": list(comm.chart.names),
        "entries": [{"i": i, "j": j, "coeff": str(c)}
                    for (i, j), c in comm.entries.items()],
    }


def pde_from_json(obj: dict, what: str = "pde") -> charpde.FirstOrderPDE:
    check_version(obj, what)
    n = doc_integer(_require(obj, "n", what), f'{what}: "n"', 1)
    text = _require(obj, "F", what)
    if not isinstance(text, str):
        raise SchemaError(f"{what}: \"F\" must be an expression string")
    try:
        return charpde.FirstOrderPDE.from_text(n, text)
    except ex.ParseError as err:
        raise SchemaError(f"{what}: {err}") from None


def hj_from_json(obj: dict, what: str = "hj") -> tuple[charpde.HJEquation, ScalarExpr]:
    check_version(obj, what)
    n = doc_integer(_require(obj, "n", what), f'{what}: "n"', 1)
    e_text = _require(obj, "E", what)
    u0_text = _require(obj, "u0", what)
    if not isinstance(e_text, str) or not isinstance(u0_text, str):
        raise SchemaError(f"{what}: \"E\" and \"u0\" must be expression strings")
    try:
        hj = charpde.HJEquation.from_text(n, e_text)
        u0 = ex.parse_expr(u0_text, charpde.base_chart(n))
    except ex.ParseError as err:
        raise SchemaError(f"{what}: {err}") from None
    return hj, u0


def grid_from_json(obj, what: str = "grid"):
    import numpy as np
    if isinstance(obj, list):
        grid = np.array(doc_numbers(obj, what))
    elif isinstance(obj, dict):
        start = doc_number(obj.get("start"), f'{what}: "start"')
        stop = doc_number(obj.get("stop"), f'{what}: "stop"')
        count = doc_integer(obj.get("count"), f'{what}: "count"', 1)
        grid = np.linspace(start, stop, count)
    else:
        raise SchemaError(f"{what}: grid must be a list or a start/stop/count object")
    first: dict[float, int] = {}        # -0.0 and 0.0 are one node
    for k, x in enumerate(grid.tolist()):
        if first.setdefault(x, k) != k:
            raise SchemaError(f"{what}[{k}]: node {x!r} repeats {what}[{first[x]}]")
    return grid
