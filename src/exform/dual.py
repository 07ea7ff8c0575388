"""Euclidean Hodge duals and the diagnostics built on them: dual-form
closure (the condition selecting an integrating surface), Cauchy-Riemann
residuals, harmonicity, and the implicit-function direction field.

The star's sign convention is the plain Levi-Civita complement sign, which
in two dimensions sends u dx + v dy to -v dx + u dy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import expr as ex
from . import forms
from .expr import Const, CoordinateChart, ExformError, ScalarExpr
from .forms import DifferentialForm


class SingularDirectionError(ExformError):
    """implicit direction evaluated where its denominator vanishes."""


def hodge_star(theta: DifferentialForm) -> DifferentialForm:
    """Euclidean star: each basis index maps to its complement with the
    Levi-Civita permutation sign."""
    chart = theta.chart
    n = chart.dim
    if theta.degree > n:
        raise forms.DegreeError(f"cannot star a degree-{theta.degree} form over n={n}")
    coeffs: dict[tuple[int, ...], ScalarExpr] = {}
    for index, coeff in theta.coeffs.items():
        comp = tuple(i for i in range(n) if i not in index)
        coeffs[comp] = coeff if forms.parity(index + comp) > 0 else -coeff
    return DifferentialForm(chart, n - theta.degree, coeffs)


@dataclass(frozen=True)
class DualPair:
    """A form together with its Euclidean dual (identity metric)."""

    primal: DifferentialForm
    dual: DifferentialForm

    @classmethod
    def of(cls, primal: DifferentialForm) -> "DualPair":
        return cls(primal, hodge_star(primal))

    def involution_defect(self) -> DifferentialForm:
        """**theta - (-1)^{p(n-p)} theta; coefficients should test to zero."""
        p = self.primal.degree
        n = self.primal.chart.dim
        sign = (-1) ** (p * (n - p))
        twice = hodge_star(self.dual)
        return forms.subtract_forms(twice, forms.scale_form(float(sign), self.primal))


@dataclass(frozen=True)
class ClosureReport:
    primal_closed: bool
    dual_closed: bool


def dual_closure_check(theta: DifferentialForm, trials: int = ex.DEFAULT_TRIALS,
                       tol: float = ex.DEFAULT_TOL,
                       seed: int = ex.DEFAULT_SEED) -> ClosureReport:
    """Closure of the form and of its dual; both passing marks a quantity
    conserved on the surface the dual-closure condition selects."""
    return ClosureReport(
        primal_closed=forms.is_closed(theta, trials, tol, seed),
        dual_closed=forms.is_closed(hodge_star(theta), trials, tol, seed),
    )


def cauchy_riemann_residuals(u: ScalarExpr, v: ScalarExpr) -> tuple[ScalarExpr, ScalarExpr]:
    """Residuals of the two closure conditions for u dx + v dy and its dual.

    First: dv/dx - du/dy (closure of u dx + v dy).
    Second: du/dx + dv/dy (closure of the dual -v dx + u dy).
    Note the ordering: the pair (u, v) passing both residuals corresponds to
    the classical analytic pair taken in the order (v, u).
    """
    if u.chart.dim != 2:
        raise ValueError("Cauchy-Riemann residuals need a 2-dimensional chart")
    if u.chart != v.chart:
        raise ex.ChartMismatchError("u and v must share one chart")
    return ex.partial(v, 0) - ex.partial(u, 1), ex.partial(u, 0) + ex.partial(v, 1)


def harmonic_residual(f: ScalarExpr) -> ScalarExpr:
    """Sum of the pure second partials (Laplacian), simplified."""
    return ex.sum_of(ex.partial(ex.partial(f, axis), axis)
                     for axis in range(f.chart.dim))


@dataclass(frozen=True)
class DirectionField:
    """The direction dx/dy = -p_y / p_x defined by a level relation p(x,y)=0."""

    numerator: ScalarExpr   # -dp/dy
    denominator: ScalarExpr  # dp/dx

    def at(self, point: Sequence[float]) -> float:
        den = ex.evaluate(self.denominator, point)
        if den == 0.0:
            raise SingularDirectionError(
                f"direction undefined at {tuple(point)}: denominator dp/dx = 0")
        num = ex.evaluate(self.numerator, point)
        return num / den


def implicit_direction(p: ScalarExpr) -> DirectionField:
    """Direction field along which the level sets of p advance; singular
    points (dp/dx = 0) are reported per evaluation."""
    if p.chart.dim != 2:
        raise ValueError("implicit direction needs a 2-dimensional chart")
    return DirectionField(
        numerator=-ex.partial(p, 1),
        denominator=ex.partial(p, 0),
    )
