"""Exterior algebra over a coordinate chart: forms, wedge products, exterior
derivatives, commutators, closure tests, homotopy antiderivatives, and
numerical integration of forms over parametrized cells.

Multi-indices are strictly increasing tuples of axis indices; coefficients
are ScalarExpr trees.  Absent indices mean zero, and literal-zero
coefficients are never stored.  A degree above the chart's dimension n has
no index, so such a form is an ordinary empty form of that degree.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import _kernels, tape
from . import expr as ex
from .expr import (ChartMismatchError, Const, CoordinateChart, DomainError,
                   ExformError, ScalarExpr)

Index = tuple[int, ...]

DEFAULT_QUAD_ORDER = 16
# Gauss-Legendre order of a homotopy coefficient, checked against twice it
HOMOTOPY_ORDER = 48


class DegreeError(ExformError):
    """Operation applied to a form of the wrong degree."""


class NotClosedError(ExformError):
    """Antiderivative requested for a form that fails the closure test."""


class QuadratureError(ExformError):
    """1-D quadrature failed its self-consistency (convergence) check."""


def _check_index(index: Index, degree: int, dim: int) -> None:
    if len(index) != degree:
        raise ValueError(f"index {index} does not have degree {degree}")
    if any(not 0 <= i < dim for i in index):
        raise ValueError(f"index {index} out of range for dimension {dim}")
    if any(a >= b for a, b in zip(index, index[1:])):
        raise ValueError(f"index {index} is not strictly increasing")


def parity(seq: Sequence[int]) -> int:
    """Sign of the permutation that sorts distinct `seq`: (-1)^inversions."""
    inversions = sum(x > y for i, x in enumerate(seq) for y in seq[i + 1:])
    return -1 if inversions % 2 else 1


def increasing_indices(dim: int, degree: int) -> list[Index]:
    """All increasing multi-indices of the degree over dim axes, lexicographic."""
    return list(itertools.combinations(range(dim), degree))


def merge_indices(a: Index, b: Index) -> tuple[int, Index] | None:
    """(parity of a + b, merged) for increasing a and b; None if an axis repeats."""
    if set(a) & set(b):
        return None
    return parity(a + b), tuple(sorted(a + b))


@dataclass(frozen=True)
class DifferentialForm:
    """Degree-p skew-symmetric form: map from increasing multi-indices to
    coefficient expressions.  Any p >= 0 is a degree; for p above n no index
    is valid, so the form is empty (d of a top-degree form has degree n+1).
    """

    chart: CoordinateChart
    degree: int
    coeffs: Mapping[Index, ScalarExpr] = field(default_factory=dict)

    def __post_init__(self):
        n = self.chart.dim
        if self.degree < 0:
            raise ValueError(f"degree {self.degree} is negative")
        normalized: dict[Index, ScalarExpr] = {}
        for index, coeff in self.coeffs.items():
            index = tuple(index)
            _check_index(index, self.degree, n)
            if isinstance(coeff, (int, float)):
                coeff = Const(self.chart, float(coeff))
            if coeff.chart != self.chart:
                raise ChartMismatchError(
                    f"coefficient at {index} is over {coeff.chart.names}")
            coeff = ex.simplify(coeff)
            if not ex.is_zero_const(coeff):
                normalized[index] = coeff
        object.__setattr__(self, "coeffs", dict(sorted(normalized.items())))

    @functools.cached_property
    def _zero(self) -> Const:
        """The one zero every absent index reads as, made on the first miss."""
        return Const(self.chart, 0.0)

    def coeff(self, index: Index) -> ScalarExpr:
        return self.coeffs.get(tuple(index), self._zero)

    def indices(self) -> list[Index]:
        return list(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        names = self.chart.names
        parts = []
        for index, coeff in self.coeffs.items():
            basis = "^".join(f"d{names[i]}" for i in index)
            parts.append(f"({coeff}) {basis}".strip())
        return "  +  ".join(parts)


def zero_form(chart: CoordinateChart, degree: int) -> DifferentialForm:
    return DifferentialForm(chart, degree, {})


def scalar_form(e: ScalarExpr) -> DifferentialForm:
    """Wrap a scalar expression as a 0-form."""
    return DifferentialForm(e.chart, 0, {(): e})


def basis_one_form(chart: CoordinateChart, axis: int) -> DifferentialForm:
    return DifferentialForm(chart, 1, {(axis,): Const(chart, 1.0)})


def one_form(chart: CoordinateChart, components: Sequence[ScalarExpr | float]) -> DifferentialForm:
    if len(components) != chart.dim:
        raise ValueError("need one component per coordinate")
    return DifferentialForm(chart, 1, {(i,): c for i, c in enumerate(components)})


def _accumulate(bucket: dict[Index, ScalarExpr], index: Index, sign: int,
                contribution: ScalarExpr) -> None:
    term = contribution if sign > 0 else -contribution
    bucket[index] = bucket[index] + term if index in bucket else term


def add_forms(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    _check_same_chart(a, b)
    if a.degree != b.degree:
        raise DegreeError(f"cannot add degrees {a.degree} and {b.degree}")
    merged: dict[Index, ScalarExpr] = dict(a.coeffs)
    for index, coeff in b.coeffs.items():
        merged[index] = merged[index] + coeff if index in merged else coeff
    return DifferentialForm(a.chart, a.degree, merged)


def subtract_forms(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    _check_same_chart(a, b)
    if a.degree != b.degree:
        raise DegreeError(f"cannot subtract degrees {a.degree} and {b.degree}")
    merged: dict[Index, ScalarExpr] = dict(a.coeffs)
    for index, coeff in b.coeffs.items():
        merged[index] = merged[index] - coeff if index in merged else -coeff
    return DifferentialForm(a.chart, a.degree, merged)


def scale_form(factor: ScalarExpr | float, form: DifferentialForm) -> DifferentialForm:
    return DifferentialForm(form.chart, form.degree,
                            {i: factor * c for i, c in form.coeffs.items()})


def _check_same_chart(a: DifferentialForm, b: DifferentialForm) -> None:
    if a.chart != b.chart:
        raise ChartMismatchError(
            f"charts differ: {a.chart.names} vs {b.chart.names}")


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Exterior product; repeated axes drop, merged indices carry parity signs."""
    _check_same_chart(a, b)
    bucket: dict[Index, ScalarExpr] = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            merged = merge_indices(ia, ib)
            if merged is None:
                continue
            sign, index = merged
            _accumulate(bucket, index, sign, ca * cb)
    return DifferentialForm(a.chart, a.degree + b.degree, bucket)


def exterior_derivative(theta: DifferentialForm) -> DifferentialForm:
    """d(theta): degree p+1, coefficients are signed sums of partials."""
    chart = theta.chart
    n = chart.dim
    bucket: dict[Index, ScalarExpr] = {}
    for index, coeff in theta.coeffs.items():
        for axis in range(n):
            inserted = merge_indices((axis,), index)
            if inserted is None:
                continue
            sign, new_index = inserted
            derivative = ex.partial(coeff, axis)
            if ex.is_zero_const(derivative):
                continue
            _accumulate(bucket, new_index, sign, derivative)
    return DifferentialForm(chart, theta.degree + 1, bucket)


@dataclass(frozen=True)
class Commutator1:
    """Antisymmetric array A[i][j] = -A[j][i]: the coefficients of d(theta)
    for a 1-form theta, or the last index pair of torsion and curvature.

    Entries are stored once for i < j; k(i, j) applies the antisymmetry
    sign, and the row c[i] is (c.k(i, j) for each j), so c[i][j] reads like
    a nested tuple.
    """

    chart: CoordinateChart
    entries: Mapping[tuple[int, int], ScalarExpr]

    def __post_init__(self):
        for (i, j) in self.entries:
            if not (0 <= i < j < self.chart.dim):
                raise ValueError(f"entry ({i},{j}) must satisfy 0 <= i < j < n")

    @functools.cached_property
    def _zero(self) -> Const:
        """The one zero every absent entry reads as, made on the first miss."""
        return Const(self.chart, 0.0)

    def k(self, i: int, j: int) -> ScalarExpr:
        entry = self.entries.get((i, j) if i < j else (j, i))
        if entry is None:
            return self._zero
        return entry if i < j else -entry

    def __getitem__(self, i: int) -> tuple[ScalarExpr, ...]:
        i = range(self.chart.dim)[i]    # IndexError past n ends iteration
        return tuple(self.k(i, j) for j in range(self.chart.dim))

    def to_two_form(self) -> DifferentialForm:
        return DifferentialForm(self.chart, 2, dict(self.entries))

    def values_at(self, point: Sequence[float]) -> dict[tuple[int, int], float]:
        values = ex.evaluate_pack(self.entries.values(), [point])[:, 0].tolist()
        return dict(zip(self.entries, values))


def commutator_1form(theta: DifferentialForm) -> Commutator1:
    """Antisymmetrized partials of the components of a 1-form."""
    if theta.degree != 1:
        raise DegreeError(f"commutator needs a 1-form, got degree {theta.degree}")
    chart = theta.chart
    entries: dict[tuple[int, int], ScalarExpr] = {}
    for i in range(chart.dim):
        for j in range(i + 1, chart.dim):
            a_i = theta.coeff((i,))
            a_j = theta.coeff((j,))
            k = ex.partial(a_j, i) - ex.partial(a_i, j)
            if not ex.is_zero_const(k):
                entries[(i, j)] = k
    return Commutator1(chart, entries)


def form_residual(form: DifferentialForm, trials: int = ex.DEFAULT_TRIALS,
                  seed: int = ex.DEFAULT_SEED) -> float:
    """Max of `sampled_abs_max` over the stored coefficients; 0.0 for none."""
    return max((ex.sampled_abs_max(c, trials, seed) for c in form.coeffs.values()),
               default=0.0)


def form_probably_zero(form: DifferentialForm, trials: int = ex.DEFAULT_TRIALS,
                       tol: float = ex.DEFAULT_TOL,
                       seed: int = ex.DEFAULT_SEED) -> bool:
    """The zero rule on `form_residual`."""
    return ex.is_zero_residual(form_residual(form, trials, seed), tol)


def is_closed(theta: DifferentialForm, trials: int = ex.DEFAULT_TRIALS,
              tol: float = ex.DEFAULT_TOL, seed: int = ex.DEFAULT_SEED) -> bool:
    """The zero rule on `closure_residual`."""
    return ex.is_zero_residual(closure_residual(theta, trials, seed), tol)


def closure_residual(theta: DifferentialForm, trials: int = ex.DEFAULT_TRIALS,
                     seed: int = ex.DEFAULT_SEED) -> float:
    """`form_residual` of d(theta)."""
    return form_residual(exterior_derivative(theta), trials, seed)


# ---------------------------------------------------------------------------
# homotopy (cone) antiderivative on a star-shaped domain


@functools.lru_cache(maxsize=32)
def _gauss01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], cached read-only per order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class HomotopyField:
    """Numerically evaluable (p-1)-form H(theta) with d(H theta) = theta.

    Coefficients at x are 1-D quadratures along the segment from the base
    point to x, so the construction is valid on domains star-shaped about
    the base.  For p = 1 the single coefficient is the potential, gauge
    fixed to vanish at the base.  The source coefficients are one pack,
    evaluated once per quadrature order (HOMOTOPY_ORDER and twice it).
    """

    source: DifferentialForm
    base: tuple[float, ...]

    @property
    def degree(self) -> int:
        return self.source.degree - 1

    @property
    def chart(self) -> CoordinateChart:
        return self.source.chart

    def indices(self) -> list[Index]:
        return increasing_indices(self.chart.dim, self.degree)

    def coefficient(self, index: Index, point: Sequence[float]) -> float:
        index = tuple(index)
        _check_index(index, self.degree, self.chart.dim)
        return self.coefficients_at(point)[index]

    def coefficients_at(self, point: Sequence[float]) -> dict[Index, float]:
        value = self._quadratures(point, HOMOTOPY_ORDER)
        check = self._quadratures(point, 2 * HOMOTOPY_ORDER)
        for index, c in check.items():
            if abs(value[index] - c) > 1e-9 * max(1.0, abs(c)):
                raise QuadratureError(
                    f"quadrature for coefficient {index} did not converge "
                    f"(order {HOMOTOPY_ORDER}: {value[index]}, doubled: {c})")
        return check

    def _quadratures(self, point, order: int) -> dict[Index, float]:
        """Each coefficient at one order, summing sources in source order."""
        p = self.source.degree
        x = np.asarray(point, dtype=np.float64)
        base = np.asarray(self.base, dtype=np.float64)
        v = x - base
        t, w = _gauss01(order)
        segment = base[None, :] + t[:, None] * v[None, :]
        weight = w * t ** (p - 1)
        totals = dict.fromkeys(self.indices(), 0.0)
        samples = ex.evaluate_pack(self.source.coeffs.values(), segment)
        for src_index, row in zip(self.source.coeffs, samples):
            integral = float(np.dot(weight, row))
            for q, axis in enumerate(src_index):
                totals[src_index[:q] + src_index[q + 1:]] += (-1) ** q * integral * v[axis]
        return totals

    def __call__(self, point: Sequence[float]) -> float:
        if self.degree != 0:
            raise DegreeError("only a degree-0 field evaluates to a scalar")
        return self.coefficient((), point)


def antiderivative(theta: DifferentialForm, base: Sequence[float],
                   trials: int = ex.DEFAULT_TRIALS, tol: float = ex.DEFAULT_TOL,
                   seed: int = ex.DEFAULT_SEED) -> HomotopyField:
    """Invert d on a closed form via the cone construction about `base`."""
    if theta.degree < 1:
        raise DegreeError("antiderivative needs degree >= 1")
    if len(base) != theta.chart.dim:
        raise ValueError("base point has wrong dimension")
    if not is_closed(theta, trials, tol, seed):
        raise NotClosedError("input form fails the closure test")
    return HomotopyField(theta, tuple(float(b) for b in base))


# ---------------------------------------------------------------------------
# cells and integration


_DUMMY_PARAM = CoordinateChart(("_s",))


def param_chart(k: int) -> CoordinateChart:
    if k == 0:
        return _DUMMY_PARAM
    return CoordinateChart(tuple(f"s{i + 1}" for i in range(k)))


@dataclass(frozen=True)
class Cell:
    """Oriented smooth image of the unit cube [0,1]^k in the chart.

    The parametrization is one expression per target coordinate over the
    parameter chart s1..sk.  Degree-0 cells are points: their maps may not
    reference any parameter.
    """

    chart: CoordinateChart
    k: int
    maps: tuple[ScalarExpr, ...]
    orientation: int = 1

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if self.k < 0:
            raise ValueError("cell degree must be >= 0")
        if len(self.maps) != self.chart.dim:
            raise ValueError("need one coordinate map per target coordinate")
        pchart = param_chart(self.k)
        for m in self.maps:
            if m.chart != pchart:
                raise ChartMismatchError(
                    f"cell map must be over parameters {pchart.names}")
            if self.k == 0 and ex.free_axes(m):
                raise ValueError("a point cell's maps may not reference parameters")

    @classmethod
    def from_text(cls, chart: CoordinateChart, k: int, maps: Sequence[str],
                  orientation: int = 1) -> "Cell":
        pchart = param_chart(k)
        return cls(chart, k, tuple(ex.parse_expr(m, pchart) for m in maps),
                   orientation)

    @classmethod
    def point(cls, chart: CoordinateChart, coords: Sequence[float],
              orientation: int = 1) -> "Cell":
        maps = tuple(Const(_DUMMY_PARAM, float(c)) for c in coords)
        return cls(chart, 0, maps, orientation)

    def at(self, params: Sequence[float]) -> np.ndarray:
        pt = (0.0,) if self.k == 0 else tuple(params)
        return ex.evaluate_pack(self.maps, [pt])[:, 0]


def boundary(cell: Cell) -> list[Cell]:
    """The 2k oriented faces of the cell, alternating-sign cube convention."""
    if cell.k == 0:
        raise DegreeError("a point cell has no boundary")
    k = cell.k
    sub_chart = param_chart(k - 1)
    faces: list[Cell] = []
    for axis in range(k):
        for side in (0, 1):
            replacements: list[ScalarExpr] = []
            keep = 0
            for a in range(k):
                if a == axis:
                    replacements.append(Const(sub_chart, float(side)))
                else:
                    replacements.append(ex.Coord(sub_chart, keep) if k > 1
                                        else Const(sub_chart, 0.0))
                    keep += 1
            maps = tuple(ex.compose(m, sub_chart, replacements)
                         for m in cell.maps)
            sign = cell.orientation * (-1) ** ((axis + 1) + side)
            faces.append(Cell(cell.chart, k - 1, maps, sign))
    return faces


def _jacobian_minor(cell: Cell, index: Index) -> ScalarExpr:
    """det of d(maps[index])/d(s) as a symbolic expression over the parameters."""
    partials = [[ex.partial(cell.maps[i], c) for c in range(cell.k)] for i in index]
    products = []
    for perm in itertools.permutations(range(cell.k)):
        prod = functools.reduce(operator.mul,
                                (partials[row][col] for row, col in enumerate(perm)))
        products.append(prod if parity(perm) > 0 else -prod)
    return ex.sum_of(products)


def _integrals(theta: DifferentialForm, cells: Sequence[Cell],
               quadrature_order: int) -> Iterator[float]:
    """Integrals of theta over cells of one degree k (tensor Gauss-Legendre).

    theta is pulled back numerically: a cell's maps and its nonzero Jacobian
    minors are one pack evaluated at the nodes, and theta's coefficients,
    compiled once, are evaluated at the mapped nodes.  A cell whose integral
    is not finite (a domain error reads NaN) is integrated symbolically.
    """
    k = cells[0].k
    if theta.chart != cells[0].chart:
        raise ChartMismatchError("form and cell charts differ")
    if theta.degree != k:
        raise DegreeError(f"degree mismatch: form {theta.degree}, cell {k}")
    if quadrature_order < 1:
        raise ValueError("quadrature order must be >= 1")
    if k == 0:
        yield from (cell.orientation * ex.evaluate(theta.coeff(()), cell.at(()))
                    for cell in cells)
        return
    if not theta.coeffs:
        yield from [0.0] * len(cells)
        return
    nodes, weights = _gauss01(quadrature_order)
    s = np.stack([g.ravel() for g in np.meshgrid(*[nodes] * k, indexing="ij")], axis=1)
    w = functools.reduce(np.multiply.outer, [weights] * k).ravel()
    n = theta.chart.dim
    coeffs = tape.pack_exprs(list(theta.coeffs.values()))
    for cell in cells:
        terms = [(r, minor) for r, i in enumerate(theta.coeffs)
                 if not ex.is_zero_const(minor := _jacobian_minor(cell, i))]
        if not terms:
            yield 0.0
            continue
        mapped, _ = _kernels.eval_pack(
            tape.pack_exprs([*cell.maps, *(minor for _, minor in terms)]), s)
        values, _ = _kernels.eval_pack(coeffs, mapped[:n].T)
        products = [values[r] * mapped[n + j] for j, (r, _) in enumerate(terms)]
        total = cell.orientation * float(np.dot(w, sum(products[1:], products[0])))
        yield total if np.isfinite(total) else _symbolic_integral(theta, cell, s, w)


def _symbolic_integral(theta: DifferentialForm, cell: Cell, s: np.ndarray,
                       w: np.ndarray) -> float:
    """Compose theta into the maps and simplify: 0 * r, l - l and 0 / r drop
    what cancels (x1 ln(x1) dx2 is 0 on the x1 = 0 face); the rest may raise."""
    pchart = param_chart(cell.k)
    integrand = ex.sum_of(ex.compose(c, pchart, list(cell.maps)) * _jacobian_minor(cell, i)
                          for i, c in theta.coeffs.items())
    if ex.is_zero_const(integrand):
        return 0.0
    return cell.orientation * float(np.dot(w, ex.evaluate_many(integrand, s)))


def integrate_form(theta: DifferentialForm, cell: Cell,
                   quadrature_order: int = DEFAULT_QUAD_ORDER) -> float:
    """Integrate a degree-k form over a degree-k cell (tensor Gauss-Legendre)."""
    return next(_integrals(theta, [cell], quadrature_order))


def boundary_integral(theta: DifferentialForm, cell: Cell,
                      quadrature_order: int = DEFAULT_QUAD_ORDER) -> float:
    """Integral of theta over the boundary faces, summed in boundary order."""
    return sum(_integrals(theta, boundary(cell), quadrature_order))


def stokes_residual(theta: DifferentialForm, cell: Cell,
                    quadrature_order: int = DEFAULT_QUAD_ORDER) -> float:
    """|integral of d(theta) over the cell - integral of theta over its boundary|."""
    if theta.degree != cell.k - 1:
        raise DegreeError(
            f"need deg(theta) = deg(cell) - 1, got {theta.degree} and {cell.k}")
    inner = integrate_form(exterior_derivative(theta), cell, quadrature_order)
    outer = boundary_integral(theta, cell, quadrature_order)
    return abs(inner - outer)
