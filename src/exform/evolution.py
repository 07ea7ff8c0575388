"""Connections and the commutator machinery for forms on deforming bases:
torsion and curvature arrays, the two-term commutator of a 1-form carrying a
connection correction, residuals of relations d(psi) = omega that need not
hold identically, degeneracy indicators, and the diagnostic record captured
when a degeneracy event creates a conserved pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from . import expr as ex
from . import forms
from .expr import ChartMismatchError, Const, CoordinateChart, ExformError, ScalarExpr
from .forms import Commutator1, DifferentialForm


class DegenerateCurveError(ExformError):
    """Curve restriction hit a sample where the tangent vanishes."""


@dataclass(frozen=True)
class Connection:
    """Christoffel-type coefficient array Gamma[rho, mu, nu]; zeros implicit."""

    chart: CoordinateChart
    gamma: Mapping[tuple[int, int, int], ScalarExpr] = field(default_factory=dict)

    def __post_init__(self):
        n = self.chart.dim
        cleaned: dict[tuple[int, int, int], ScalarExpr] = {}
        for key, coeff in self.gamma.items():
            rho, mu, nu = key
            if not all(0 <= i < n for i in (rho, mu, nu)):
                raise ValueError(f"index {key} out of range for n={n}")
            if isinstance(coeff, (int, float)):
                coeff = Const(self.chart, float(coeff))
            if coeff.chart != self.chart:
                raise ChartMismatchError(f"gamma{key} is over {coeff.chart.names}")
            coeff = ex.simplify(coeff)
            if not ex.is_zero_const(coeff):
                cleaned[(rho, mu, nu)] = coeff
        object.__setattr__(self, "gamma", dict(sorted(cleaned.items())))
        object.__setattr__(self, "_zero", Const(self.chart, 0.0))  # not a field

    def coeff(self, rho: int, mu: int, nu: int) -> ScalarExpr:
        return self.gamma.get((rho, mu, nu), self._zero)


def torsion(conn: Connection) -> tuple[Commutator1, ...]:
    """T[rho][mu][nu] = Gamma[rho,mu,nu] - Gamma[rho,nu,mu], simplified;
    T[rho] is antisymmetric in (mu, nu), built for mu < nu only."""
    chart = conn.chart
    n = chart.dim
    return tuple(
        Commutator1(chart, {(m, nu): conn.coeff(r, m, nu) - conn.coeff(r, nu, m)
                            for m in range(n) for nu in range(m + 1, n)})
        for r in range(n))


def curvature(conn: Connection) -> tuple[tuple[Commutator1, ...], ...]:
    """Standard affine curvature array R[mu][nu][rho][sigma]:

        d Gamma[mu,nu,sigma]/dx^rho - d Gamma[mu,nu,rho]/dx^sigma
        + sum_lam (Gamma[mu,lam,rho] Gamma[lam,nu,sigma]
                   - Gamma[mu,lam,sigma] Gamma[lam,nu,rho])

    R[mu][nu] is antisymmetric in (rho, sigma), built for rho < sigma only.
    """
    chart = conn.chart
    n = chart.dim
    nonzero = conn.gamma.keys()

    def entry(mu, nu, rho, sigma):
        terms = [ex.partial(conn.coeff(mu, nu, sigma), rho)
                 - ex.partial(conn.coeff(mu, nu, rho), sigma)]
        for lam in range(n):
            # a term with a zero factor in each product simplifies to 0 - 0,
            # and t + 0 to t: skipping it leaves the simplified tree as it is
            if (((mu, lam, rho) not in nonzero or (lam, nu, sigma) not in nonzero)
                    and ((mu, lam, sigma) not in nonzero
                         or (lam, nu, rho) not in nonzero)):
                continue
            terms.append(conn.coeff(mu, lam, rho) * conn.coeff(lam, nu, sigma)
                         - conn.coeff(mu, lam, sigma) * conn.coeff(lam, nu, rho))
        return ex.sum_of(terms)

    return tuple(
        tuple(
            Commutator1(chart, {(rho, sigma): entry(mu, nu, rho, sigma)
                                for rho in range(n) for sigma in range(rho + 1, n)})
            for nu in range(n))
        for mu in range(n))


@dataclass(frozen=True)
class EvolutionaryCommutator:
    """Two-term commutator of a 1-form on a connected basis: the flat term
    (antisymmetrized coefficient partials) plus the basis term contributed
    by the connection's torsion contracted with the coefficients."""

    flat: Commutator1
    basis: Commutator1

    @property
    def chart(self) -> CoordinateChart:
        return self.flat.chart

    def total_entry(self, i: int, j: int) -> ScalarExpr:
        return self.flat.k(i, j) + self.basis.k(i, j)

    def total(self) -> Commutator1:
        n = self.chart.dim
        entries = {}
        for i in range(n):
            for j in range(i + 1, n):
                e = self.total_entry(i, j)
                if not ex.is_zero_const(e):
                    entries[(i, j)] = e
        return Commutator1(self.chart, entries)


def evolutionary_commutator(omega: DifferentialForm, conn: Connection) -> EvolutionaryCommutator:
    """Commutator of a 1-form with the connection correction.

    Entry (i, j) is (da_j/dx^i - da_i/dx^j) + sum_s (Gamma[s,j,i] -
    Gamma[s,i,j]) a_s; for a symmetric connection the second term cancels
    and the result reduces to the flat commutator.
    """
    if omega.degree != 1:
        raise forms.DegreeError("evolutionary commutator needs a 1-form")
    if omega.chart != conn.chart:
        raise ChartMismatchError("form and connection charts differ")
    chart = omega.chart
    n = chart.dim
    flat = forms.commutator_1form(omega)
    a = [omega.coeff((s,)) for s in range(n)]
    basis_entries: dict[tuple[int, int], ScalarExpr] = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = [(conn.coeff(s, j, i) - conn.coeff(s, i, j)) * a_s
                     for s, a_s in enumerate(a) if not ex.is_zero_const(a_s)]
            if terms and not ex.is_zero_const(entry := ex.sum_of(terms)):
                basis_entries[(i, j)] = entry
    return EvolutionaryCommutator(flat, Commutator1(chart, basis_entries))


# ---------------------------------------------------------------------------
# relations d(psi) = omega


@dataclass(frozen=True)
class NonidenticalRelation:
    """A (p-1)-form psi paired with a p-form omega; the relation d(psi) =
    omega is identical exactly when the residual d(psi) - omega vanishes,
    which requires omega to be closed."""

    psi: DifferentialForm
    omega: DifferentialForm

    def __post_init__(self):
        if self.psi.chart != self.omega.chart:
            raise ChartMismatchError("psi and omega charts differ")
        if self.omega.degree != self.psi.degree + 1:
            raise forms.DegreeError(
                f"need deg(omega) = deg(psi) + 1, got {self.omega.degree} "
                f"and {self.psi.degree}")

    def residual_form(self) -> DifferentialForm:
        return forms.subtract_forms(forms.exterior_derivative(self.psi), self.omega)

    def is_identical(self, trials: int = ex.DEFAULT_TRIALS,
                     tol: float = ex.DEFAULT_TOL,
                     seed: int = ex.DEFAULT_SEED) -> bool:
        return forms.form_probably_zero(self.residual_form(), trials, tol, seed)


def relation_indices(rel: NonidenticalRelation) -> list[tuple[int, ...]]:
    """All increasing multi-indices of the omega degree, lexicographic."""
    return forms.increasing_indices(rel.omega.chart.dim, rel.omega.degree)


def relation_residual(rel: NonidenticalRelation, point: Sequence[float]) -> np.ndarray:
    """Coefficient vector of d(psi) - omega at the point, ordered over all
    increasing multi-indices of the omega degree."""
    residual = rel.residual_form()
    return ex.evaluate_pack([residual.coeff(i) for i in relation_indices(rel)], [point])[:, 0]


def restrict_relation_to_curve(rel: NonidenticalRelation, curve: "forms.Cell",
                               samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Residual trace of the relation restricted to a parametrized path.

    r(t) = <d(psi) - omega at gamma(t), gamma'(t)> for t on a uniform grid
    in [0, 1].  A small max |r| certifies the relation holds along the path
    even when the unrestricted residual is nonzero.
    """
    if rel.omega.degree != 1 or rel.psi.degree != 0:
        raise forms.DegreeError("curve restriction needs deg(psi)=0, deg(omega)=1")
    if curve.k != 1:
        raise forms.DegreeError("curve must be a degree-1 cell")
    if curve.chart != rel.omega.chart:
        raise ChartMismatchError("curve and relation charts differ")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    pchart = forms.param_chart(1)
    residual = rel.residual_form()
    velocity = [ex.partial(m, 0) for m in curve.maps]
    axes = range(curve.chart.dim)
    ts = np.linspace(0.0, 1.0, samples)
    pts = ts.reshape(-1, 1)
    speed2 = ex.sum_of(velocity[a] * velocity[a] for a in axes)
    speeds = np.sqrt(ex.evaluate_many(speed2, pts))
    if np.any(speeds < 1e-12):
        bad = int(np.argmin(speeds))
        raise DegenerateCurveError(
            f"curve tangent vanishes at t={ts[bad]:.6g} (|gamma'|={speeds[bad]:.3g})")
    integrand = ex.sum_of(ex.compose(residual.coeff((a,)), pchart, list(curve.maps))
                          * velocity[a] for a in axes)
    values = ex.evaluate_many(integrand, pts)
    return ts, values


# ---------------------------------------------------------------------------
# degeneracy events and the captured record


def degeneracy_indicator(matrix_field: Sequence[Sequence[ScalarExpr]],
                         point: Sequence[float]) -> float:
    """Determinant of the matrix evaluated at the point (LAPACK LU with
    partial pivoting); a near-zero value flags a degeneracy event."""
    n = len(matrix_field)
    if not n or any(len(row) != n for row in matrix_field):
        raise ValueError(f"matrix must be square, got row lengths {[len(r) for r in matrix_field]}")
    entries = [entry for row in matrix_field for entry in row]
    m = ex.evaluate_pack(entries, np.asarray(point, dtype=np.float64).reshape(1, -1))
    return float(np.linalg.det(m.reshape(n, n)))


@dataclass(frozen=True)
class Pseudostructure:
    """Descriptor of a lower-dimensional locus on which an otherwise
    unclosed form becomes a differential: a family of characteristics, a
    level set, or a direction field."""

    kind: str  # characteristic-family | level-set | direction-field
    data: Any = None
    dim: int = 1

    _KINDS = ("characteristic-family", "level-set", "direction-field")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}")


@dataclass(frozen=True)
class DegeneracyEvent:
    """A point where a degeneracy indicator vanished."""

    point: tuple[float, ...]
    indicator: float = 0.0


@dataclass(frozen=True)
class BiStructure:
    """Diagnostic record captured when a degeneracy event pairs a conserved
    quantity with the surface carrying it.

    discrete_change is the flat commutator term and deformation_measure the
    basis (connection) term, both read at the event point from the
    max-magnitude component of the total commutator; their sum is the
    recorded total.
    """

    pseudostructure: Pseudostructure
    point: tuple[float, ...]
    component: tuple[int, int]
    closed_form_value: float | None
    discrete_change: float
    deformation_measure: float

    @property
    def total_commutator(self) -> float:
        return self.discrete_change + self.deformation_measure

    def to_json_obj(self) -> dict:
        return {
            "pseudostructure": {"kind": self.pseudostructure.kind,
                                "dim": self.pseudostructure.dim},
            "point": list(self.point),
            "component": list(self.component),
            "closed_form_value": self.closed_form_value,
            "discrete_change": self.discrete_change,
            "deformation_measure": self.deformation_measure,
            "total_commutator": self.total_commutator,
        }


def capture_bistructure(event: DegeneracyEvent, omega: DifferentialForm,
                        conn: Connection | None,
                        pseudostructure: Pseudostructure,
                        psi: DifferentialForm | None = None) -> BiStructure:
    """Record the commutator split at a degeneracy event.

    The term values are those of omega's commutator under the connection
    (flat if None) at the event point.  The reported component is the one
    where |flat + basis| is largest.
    """
    comm = evolutionary_commutator(
        omega, conn if conn is not None else Connection(omega.chart))
    flat = comm.flat.values_at(event.point)
    basis = comm.basis.values_at(event.point)
    keys = sorted(set(flat) | set(basis))
    if keys:
        best = max(keys, key=lambda k: abs(flat.get(k, 0.0) + basis.get(k, 0.0)))
        discrete = float(flat.get(best, 0.0))
        deformation = float(basis.get(best, 0.0))
    else:
        best = (0, 1) if omega.chart.dim > 1 else (0, 0)
        discrete = deformation = 0.0
    value: float | None = None
    if psi is not None:
        values = ex.evaluate_pack(psi.coeffs.values(), [event.point])[:, 0].tolist()
        if psi.degree == 0:
            value = values[0] if values else 0.0
        else:
            value = max(map(abs, values), default=0.0)
    return BiStructure(pseudostructure, event.point, best, value,
                       discrete, deformation)
