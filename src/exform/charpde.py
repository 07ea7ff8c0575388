"""First-order PDE analyzer by the method of characteristics.

Covers the Charpit strip system for a general F(x, u, p) = 0, the canonical
(Hamiltonian) relations for equations of the shape du/dt + E(t, x, p) = 0,
Poisson-bracket transport, Lagrangian solution fans, caustic detection via
the fan Jacobian, and the function-vs-functional classification of sampled
derivative fields by their finite-difference commutator.

Strips are integrated with classical fixed-step RK4 through `ex.rk4`, so
whole fans advance in one batched call.  A `Fan` is that call's read-only
trajectory, and ``fan[k]`` makes strip k as views of it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import evolution
from . import expr as ex
from . import forms
from .evolution import Pseudostructure
from .expr import CoordinateChart, ExformError, ScalarExpr

ON_SURFACE_TOL = 1e-10
DT_REFINE = 1e-4      # bisection width of a caustic time


class OffSurfaceError(ExformError):
    """Initial strip state does not satisfy F = 0."""


class StripIntegrationError(ExformError):
    """Domain failure while integrating a strip; carries the sample index."""

    def __init__(self, message: str, step: int):
        self.step = step
        super().__init__(message)


class FanError(ExformError):
    """Fan-level analysis got an unusable ensemble of strips."""


def _base_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def _momentum_names(n: int) -> tuple[str, ...]:
    return tuple(f"p{i + 1}" for i in range(n))


def extended_chart(n: int) -> CoordinateChart:
    """Chart (x1..xn, u, p1..pn) that a general first-order equation lives on."""
    return CoordinateChart(_base_names(n) + ("u",) + _momentum_names(n))


def hj_chart(n: int) -> CoordinateChart:
    """Chart (t, x1..xn, p1..pn) for equations solved for the time derivative."""
    return CoordinateChart(("t",) + _base_names(n) + _momentum_names(n))


def lifted_chart(n: int) -> CoordinateChart:
    """State chart (t, x1..xn, u, p1..pn) used when integrating canonical strips."""
    return CoordinateChart(("t",) + _base_names(n) + ("u",) + _momentum_names(n))


def base_chart(n: int) -> CoordinateChart:
    return CoordinateChart(_base_names(n))


@dataclass(frozen=True)
class FirstOrderPDE:
    """F(x1..xn, u, p1..pn) = 0 with p_i standing for du/dx_i."""

    n: int
    F: ScalarExpr

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("base dimension must be >= 1")
        if self.F.chart != extended_chart(self.n):
            raise ex.ChartMismatchError(
                f"F must be over {extended_chart(self.n).names}")

    @classmethod
    def from_text(cls, n: int, text: str) -> "FirstOrderPDE":
        return cls(n, ex.parse_expr(text, extended_chart(n)))

    @property
    def chart(self) -> CoordinateChart:
        return self.F.chart

    @functools.cached_property
    def _system(self):
        """Symbolic strip derivatives over the extended chart, and F:
        dx_i = F_{p_i}, du = sum p_i F_{p_i}, dp_i = -(F_{x_i} + p_i F_u)."""
        n, chart, F = self.n, self.chart, self.F
        f_p = [ex.partial(F, n + 1 + i) for i in range(n)]
        f_x = [ex.partial(F, i) for i in range(n)]
        f_u = ex.partial(F, n)
        p_coord = [ex.Coord(chart, n + 1 + i) for i in range(n)]
        du = ex.sum_of(p_coord[i] * f_p[i] for i in range(n))
        dp = [-(f_x[i] + p_coord[i] * f_u) for i in range(n)]
        return (*f_p, du, *dp), F


@dataclass(frozen=True)
class HJEquation:
    """du/dt + E(t, x1..xn, p1..pn) = 0; E never references u by construction."""

    n: int
    E: ScalarExpr

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("base dimension must be >= 1")
        if self.E.chart != hj_chart(self.n):
            raise ex.ChartMismatchError(f"E must be over {hj_chart(self.n).names}")

    @classmethod
    def from_text(cls, n: int, text: str) -> "HJEquation":
        return cls(n, ex.parse_expr(text, hj_chart(n)))

    @property
    def chart(self) -> CoordinateChart:
        return self.E.chart

    def as_charpit(self) -> FirstOrderPDE:
        """Lift to F = p_t + E over base (t, x1..xn): the strip system of the
        lifted equation reproduces the canonical relations with s = t."""
        n1 = self.n + 1
        target = extended_chart(n1)
        # source chart (t, x.., p..) maps to (t=x1', x_i=x(i+1)', p_i=p(i+1)')
        axes = ex.coords(target)
        lifted_E = ex.compose(self.E, target, axes[:n1] + axes[n1 + 2:])
        p_t = axes[n1 + 1]  # momentum conjugate to the time slot
        return FirstOrderPDE(n1, p_t + lifted_E)

    @functools.cached_property
    def _system(self):
        """Lifted state derivatives over (t, x.., u, p..):
        dt = 1, dx_j = E_{p_j}, du = sum p_j E_{p_j} - E, dp_j = -E_{x_j}.
        Returns them and E, all over that chart."""
        n = self.n
        dst = lifted_chart(n)
        axes = ex.coords(dst)
        repl = axes[:n + 1] + axes[n + 2:]  # every axis of (t, x.., p..), u skipped

        def lift(e: ScalarExpr) -> ScalarExpr:
            return ex.compose(e, dst, repl)

        e_p = [ex.partial(self.E, 1 + n + j) for j in range(n)]
        e_x = [ex.partial(self.E, 1 + j) for j in range(n)]
        dx = [lift(e) for e in e_p]
        du = ex.sum_of(ex.Coord(dst, n + 2 + j) * dx[j] for j in range(n)) - lift(self.E)
        dp = [-lift(e) for e in e_x]
        return (ex.Const(dst, 1.0), *dx, du, *dp), lift(self.E)


# ---------------------------------------------------------------------------
# right-hand sides


def charpit_rhs(pde: FirstOrderPDE, state: Sequence[float]):
    """Strip derivatives (dx/ds, du/ds, dp/ds) at a state (x, u, p)."""
    n = pde.n
    v = ex.evaluate_pack(pde._system[0], _state_rows(n, [state]))[:, 0]
    return v[:n].copy(), float(v[n]), v[n + 1:].copy()


def _state_rows(n: int, states) -> np.ndarray:
    """States (x, u, p), or flat rows of 2n+1 numbers, as rows (m, 2n+1).

    A list of triples converts as three arrays, x, u and p, and an array in
    one numpy call.  Any other list (flat rows, mixed forms) is spliced state
    by state, and a malformed state raises naming its index."""
    width = 2 * n + 1
    rows = states
    if not isinstance(states, np.ndarray):
        states = list(states)
        triples = _triple_rows(n, states)
        if triples is not None:
            return triples
        rows = [_flat_state(n, state) for state in states]
    try:
        out = np.array(rows, dtype=np.float64)
        if len(rows) and out.shape == (len(rows), width):
            return out
    except (TypeError, ValueError):
        pass
    for k, row in enumerate(rows):
        try:
            ok = row is not None and np.asarray(row, np.float64).shape == (width,)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"state {k} must be (x, u, p) with {n} components "
                             f"in x and p, or {width} components")
    raise ValueError("need at least one state")


def _triple_rows(n: int, states: list):
    """Triples (x, u, p) as rows (m, 2n+1), each part converted for all
    states at once; None unless every state is a triple whose parts are n, 1
    and n numbers (a part of one number may be bare)."""
    if not states or not all(isinstance(s, (tuple, list)) and len(s) == 3 for s in states):
        return None
    m, parts = len(states), []
    for i, size in enumerate((n, 1, n)):
        try:
            part = np.array([s[i] for s in states], dtype=np.float64)
        except (TypeError, ValueError):
            return None
        if part.shape != (m, size) and not (size == 1 and part.shape == (m,)):
            return None
        parts.append(part.reshape(m, size))
    return np.concatenate(parts, axis=1)


def _flat_state(n: int, state):
    """A triple (x, u, p) with n, 1 and n entries spliced into one flat list,
    None for a triple of other sizes; any other state as it is."""
    if not (isinstance(state, (tuple, list)) and len(state) == 3):
        return state
    row = []
    for part, size in zip(state, (n, 1, n)):
        part = part.tolist() if isinstance(part, np.ndarray) else part
        part = part if isinstance(part, (tuple, list)) else [part]
        if len(part) != size:
            return None
        row += part
    return row


@dataclass(frozen=True)
class CharacteristicStrip:
    """Sampled trajectory of (x, u, p) with its conserved-quantity audit.

    Integrated strips are read-only views into their fan's trajectory, so
    strips of one fan share memory.  ``drift`` holds F along the samples
    for Charpit strips (zero up to integrator error when launched
    on-surface), or E minus its initial value for canonical strips.
    """

    s: np.ndarray       # (m+1,)
    x: np.ndarray       # (m+1, n)
    u: np.ndarray       # (m+1,)
    p: np.ndarray       # (m+1, n)
    drift: np.ndarray   # (m+1,)
    step: float

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def samples(self) -> int:
        return self.s.shape[0]

    @property
    def max_drift(self) -> float:
        return float(np.max(np.abs(self.drift)))

    def closure_defect(self) -> float:
        """Max defect of accumulated u against the cumulative trapezoid of
        p . dx along the sampled path (the strip condition du = p . dx)."""
        pdx = np.einsum("ki,ki->k", 0.5 * (self.p[1:] + self.p[:-1]),
                        np.diff(self.x, axis=0))
        integral = np.concatenate([[0.0], np.cumsum(pdx)])
        return float(np.max(np.abs((self.u - self.u[0]) - integral)))


@dataclass(frozen=True)
class Fan:
    """Strips integrated together: the read-only trajectory ``states``
    (samples, m, 2n+1) laid out as (x, u, p), the shared parameter ``s``,
    the drift audit (samples, m) and the step.  ``fan[k]`` is strip k as
    views, made when asked for; a negative int k counts back as on a list.
    """

    s: np.ndarray
    states: np.ndarray
    drift: np.ndarray
    step: float

    def __post_init__(self):
        for a in (self.s, self.states, self.drift):
            a.flags.writeable = False

    @property
    def n(self) -> int:
        return self.states.shape[2] // 2

    def __len__(self) -> int:
        return self.states.shape[1]

    def __getitem__(self, k: int) -> CharacteristicStrip:
        k, n = operator.index(k), self.n
        state = self.states[:, k]       # IndexError past either end
        return CharacteristicStrip(self.s, state[:, :n], state[:, n],
                                   state[:, n + 1:], self.drift[:, k], self.step)


def _rk4(rhs: Sequence[ScalarExpr], states0: np.ndarray, span: float,
         steps: int) -> tuple[np.ndarray, float]:
    """Batched RK4 over [0, span]: the read-only trajectory (steps+1, m, d)
    and the step h; a failed step raises."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h = span / steps
    traj, err = ex.rk4(rhs, states0, h, steps)
    if err is not None:
        step, comp, message = err
        raise StripIntegrationError(
            f"{message} in strip component {comp} at step {step}", step)
    traj.flags.writeable = False
    return traj, h


def _audit(audit: ScalarExpr, states: np.ndarray, what: str) -> np.ndarray:
    """The audit quantity (F or E) at every state of a fan (samples, m, d),
    as (samples, m); an undefined value raises naming its sample."""
    # RK4's trajectory is a view of a (samples, d, m) buffer: read in place
    vals, ok = ex.evaluate_masked(audit, states)
    if not ok.all():
        k = int(np.argmin(ok.all(axis=1)))
        raise StripIntegrationError(f"{what} undefined at sample {k}", k)
    return vals


def integrate_strips(pde: FirstOrderPDE, initials, s_end: float,
                     steps: int) -> Fan:
    """Integrate a fan of Charpit strips in one batched RK4 run; each initial
    state (x, u, p) must satisfy |F| <= 1e-10."""
    states0 = _state_rows(pde.n, initials)
    rhs, F = pde._system
    f0, ok = ex.evaluate_masked(F, states0)
    if not ok.all():
        raise ex.DomainError("F undefined at an initial state")
    bad = np.abs(f0) > ON_SURFACE_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise OffSurfaceError(
            f"initial state {k} off the surface: |F| = {abs(f0[k]):.3e} > {ON_SURFACE_TOL}")
    traj, h = _rk4(rhs, states0, s_end, steps)
    return Fan(np.arange(steps + 1) * h, traj, _audit(F, traj, "F"), h)


# ---------------------------------------------------------------------------
# canonical relations


def canonical_rhs(hj: HJEquation, state: Sequence[float]):
    """Canonical derivatives at (t, x, p): dx_j/dt = dE/dp_j, dp_j/dt =
    -dE/dx_j, and the transported du/dt = sum p_j dE/dp_j - E."""
    n = hj.n
    flat = np.asarray(state, dtype=np.float64)
    if flat.shape != (2 * n + 1,):
        raise ValueError(f"state must be (t, x1..xn, p1..pn) of length {2 * n + 1}")
    # the lifted system never reads u, so any value stands in for it
    v = ex.evaluate_pack(hj._system[0], [np.insert(flat, 1 + n, 0.0)])[:, 0]
    return v[1:1 + n].copy(), v[n + 2:].copy(), float(v[1 + n])


def poisson_bracket(E: ScalarExpr, V: ScalarExpr) -> ScalarExpr:
    """sum_j (dE/dp_j dV/dx_j - dE/dx_j dV/dp_j), simplified.

    The sign is fixed so that dV/dt along canonical trajectories equals
    dV/dt(partial) + bracket; a V solving dV/dt(partial) + bracket = 0 is
    then constant along the flow.
    """
    if E.chart != V.chart:
        raise ex.ChartMismatchError("bracket arguments must share one chart")
    chart = E.chart
    if chart.dim < 3 or chart.dim % 2 == 0:
        raise ValueError("bracket needs a (t, x1..xn, p1..pn) chart")
    n = (chart.dim - 1) // 2
    return ex.sum_of(ex.partial(E, 1 + n + j) * ex.partial(V, 1 + j)
                     - ex.partial(E, 1 + j) * ex.partial(V, 1 + n + j) for j in range(n))


def integrate_canonical_strips(hj: HJEquation, initials, t_end: float,
                               steps: int) -> Fan:
    """Integrate canonical strips (t, x, u, p); initial = (x0, u0, p0) at t=0.

    The fan's s is the time t, and its states drop the t column.  The drift
    audit records E along each strip minus its initial value (a conserved
    quantity when E has no explicit time dependence).
    """
    states0 = np.insert(_state_rows(hj.n, initials), 0, 0.0, axis=1)
    rhs, E = hj._system
    traj, h = _rk4(rhs, states0, t_end, steps)
    e_vals = _audit(E, traj, "E")
    # dt/ds = 1 for every strip, so all strips share one time column
    return Fan(traj[:, 0, 0], traj[:, :, 1:], e_vals - e_vals[0], h)


@dataclass(frozen=True)
class CausticEvent:
    """A fan-Jacobian sign change: the strip fan focuses at (t_star, x_star)."""

    t_star: float
    x0: float
    strip_index: int
    x_star: float
    bistructure: "evolution.BiStructure | None" = None


@dataclass(frozen=True)
class HJSolution:
    """Lagrangian solution fan: values ride the moving foot-points x(t; x0),
    launched from the nodes x[0]."""

    hj: HJEquation
    strips: Fan
    events: list[CausticEvent]

    # read-only views of the fan: t (steps+1,) and x, u, p (steps+1, m)
    t = property(lambda self: self.strips.s)
    x = property(lambda self: self.strips.states[:, :, 0])
    u = property(lambda self: self.strips.states[:, :, 1])
    p = property(lambda self: self.strips.states[:, :, 2])


def solve_hj(hj: HJEquation, u0: ScalarExpr, grid: Sequence[float], t_end: float,
             steps: int) -> HJSolution:
    """Solve du/dt + E = 0 by characteristics from initial data u(0, x) = u0.

    One strip launches per grid node with the symbolic slope p0 = du0/dx
    evaluated there.  Output stays Lagrangian.  Crossing detection annotates
    events without aborting.
    """
    if hj.n != 1:
        raise ValueError("solution fans are implemented for a 1-D base")
    if u0.chart != base_chart(1):
        raise ex.ChartMismatchError(f"u0 must be over {base_chart(1).names}")
    nodes = np.asarray(grid, dtype=np.float64).ravel()
    if nodes.size < 1:
        raise ValueError("grid must contain at least one node")
    u_init, p_init = ex.evaluate_pack((u0, ex.partial(u0, 0)), nodes[:, None])
    fan = integrate_canonical_strips(
        hj, np.column_stack([nodes, u_init, p_init]), t_end, steps)
    return HJSolution(hj, fan, detect_caustic(fan) if len(fan) >= 3 else [])


def poincare_residual(strip: CharacteristicStrip, hj: HJEquation) -> float:
    """Closure defect of du = -E dt + p . dx along a canonical strip.

    Compares accumulated u against the composite-Simpson integral of the
    sampled integrand -E + p . dx/dt, audited at even sample indices; both
    sides carry the integrator's fourth-order accuracy, so halving the step
    shrinks the defect about sixteenfold on non-trivial flows.
    """
    n = hj.n
    if strip.n != n:
        raise ValueError("strip dimension does not match the equation")
    if strip.samples < 3:
        raise ValueError("need at least 3 samples")
    states = np.concatenate([strip.s[:, None], strip.x, strip.p], axis=1)
    vals = ex.evaluate_pack([hj.E] + [ex.partial(hj.E, 1 + n + j) for j in range(n)], states)
    # xdot in C order, as stacking made it: einsum's sum order follows the layout
    e_vals, xdot = vals[0], np.ascontiguousarray(vals[1:].T)
    w = -e_vals + np.einsum("ki,ki->k", strip.p, xdot)
    h = strip.step
    pair = (h / 3.0) * (w[0:-2:2] + 4.0 * w[1:-1:2] + w[2::2])
    simpson = np.cumsum(pair)
    du = strip.u[2::2][:simpson.size] - strip.u[0]
    return float(np.max(np.abs(du - simpson)))


# ---------------------------------------------------------------------------
# derivative-field classification


def commutator_residual_field(p_field: np.ndarray,
                              spacing: Sequence[float]) -> np.ndarray:
    """Central-difference commutator d(p2)/d(a1) - d(p1)/d(a2) of a sampled
    2-component field on a rectangular 2-D grid; values at interior nodes."""
    f = np.asarray(p_field, dtype=np.float64)
    if f.ndim != 3 or f.shape[2] != 2:
        raise ValueError(f"expected field of shape (n1, n2, 2), got {f.shape}")
    if f.shape[0] < 3 or f.shape[1] < 3:
        raise FanError("grid too small: need at least 3x3 samples")
    h1, h2 = float(spacing[0]), float(spacing[1])
    dp2_d1 = (f[2:, 1:-1, 1] - f[:-2, 1:-1, 1]) / (2.0 * h1)
    dp1_d2 = (f[1:-1, 2:, 0] - f[1:-1, :-2, 0]) / (2.0 * h2)
    return dp2_d1 - dp1_d2


@dataclass(frozen=True)
class FieldClassification:
    kind: str  # "function" | "functional"
    max_abs: float
    location: tuple[int, int]  # full-grid indices of the worst interior node
    residual: np.ndarray


def classify_derivative_field(p_field: np.ndarray, spacing: Sequence[float],
                              tol: float) -> FieldClassification:
    """A derivative field with commutator below tol is a genuine function
    (path-independent); otherwise the underlying solution is path-dependent."""
    k = commutator_residual_field(p_field, spacing)
    flat = int(np.argmax(np.abs(k)))
    i, j = np.unravel_index(flat, k.shape)
    max_abs = float(np.abs(k[i, j]))
    kind = "function" if max_abs <= tol else "functional"
    return FieldClassification(kind, max_abs, (int(i) + 1, int(j) + 1), k)


# ---------------------------------------------------------------------------
# caustics


@dataclass(frozen=True)
class BiStructureContext:
    """Optional context forwarded with each caustic event to produce the
    captured diagnostic record."""

    omega: forms.DifferentialForm
    connection: "evolution.Connection | None" = None
    psi: forms.DifferentialForm | None = None


def detect_caustic(fan: Fan, context: BiStructureContext | None = None) -> list[CausticEvent]:
    """Scan a fan over a 1-D base for sign changes of the launch-Jacobian dx/dx0.

    The launch nodes are x[0], so the Jacobian is exactly 1 at s = 0.  It is
    estimated by central differences across neighboring strips; each sign
    change is bracketed in s and refined by bisection on the linear
    interpolant to within DT_REFINE.
    """
    if fan.n != 1:
        raise FanError("caustic detection is implemented for a 1-D base")
    if len(fan) < 3:
        raise FanError("need at least 3 strips")
    t, x = fan.s, fan.states[:, :, 0]
    x0 = x[0]
    denom = x0[2:] - x0[:-2]
    if np.any(denom == 0.0):
        raise FanError("launch nodes must be distinct")
    jac = (x[:, 2:] - x[:, :-2]) / denom      # (samples, strips - 2)
    a, b = jac[:-1], jac[1:]
    zero = a == 0.0
    hit = zero | (a * b < 0.0)
    # candidates in strip-major order: (strip - 1, sample interval)
    kk, ii = np.argwhere(hit.T).T
    a, b, zero = a[ii, kk], b[ii, kk], zero[ii, kk]
    t0, t1 = t[ii], t[ii + 1]
    # bisection on the linear interpolant, all sign changes at once
    lo, hi, flo = t0.copy(), t1.copy(), a.copy()
    active = ~zero & (np.abs(hi - lo) > DT_REFINE)   # hi < lo when time runs back
    while active.any():
        mid = 0.5 * (lo + hi)
        fmid = a + (b - a) * (mid - t0) / (t1 - t0)
        left = flo * fmid <= 0.0
        hi = np.where(active & left, mid, hi)
        lo = np.where(active & ~left, mid, lo)
        flo = np.where(active & ~left, fmid, flo)
        active &= np.abs(hi - lo) > DT_REFINE
    t_star = np.where(zero, t0, 0.5 * (lo + hi))
    frac = (t_star - t0) / (t1 - t0)
    xa, xb = x[ii, kk + 1], x[ii + 1, kk + 1]
    x_star = np.where(zero, xa, xa + frac * (xb - xa))
    return [_make_event(ts, x0[k + 1], k + 1, xs, context)
            for ts, k, xs in zip(t_star.tolist(), kk.tolist(), x_star.tolist())]


def _make_event(t_star: float, x0: float, k: int, x_star: float,
                context: BiStructureContext | None) -> CausticEvent:
    record = None
    if context is not None:
        ps = Pseudostructure("characteristic-family", data=float(x0), dim=1)
        event = evolution.DegeneracyEvent((float(t_star), float(x_star)))
        record = evolution.capture_bistructure(event, context.omega,
                                               context.connection, ps,
                                               psi=context.psi)
    return CausticEvent(float(t_star), float(x0), int(k), float(x_star), record)
