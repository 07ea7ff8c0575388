"""First-order PDE analyzer by the method of characteristics.

Covers the Charpit strip system for a general F(x, u, p) = 0, the canonical
(Hamiltonian) relations for equations of the shape du/dt + E(t, x, p) = 0,
Poisson-bracket transport, Lagrangian solution fans, caustic detection via
the fan Jacobian, and the function-vs-functional classification of sampled
derivative fields by their finite-difference commutator.

Strips are integrated with classical fixed-step RK4 through the compiled
tape kernels, so whole fans advance in one batched call.  A fan stays the
one trajectory array that call returns: its strips are read-only views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import _kernels
from . import evolution
from . import expr as ex
from . import forms
from . import tape
from .evolution import Pseudostructure
from .expr import CoordinateChart, ExformError, ScalarExpr

ON_SURFACE_TOL = 1e-10


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
        repl = [ex.Coord(target, 0)]
        repl += [ex.Coord(target, 1 + i) for i in range(self.n)]
        repl += [ex.Coord(target, n1 + 1 + 1 + i) for i in range(self.n)]
        lifted_E = ex.compose(self.E, target, repl)
        p_t = ex.Coord(target, n1 + 1)  # momentum conjugate to the time slot
        return FirstOrderPDE(n1, ex.Binary(target, "+", p_t, lifted_E))


# ---------------------------------------------------------------------------
# right-hand sides


@lru_cache(maxsize=64)
def _charpit_system(pde: FirstOrderPDE):
    """Symbolic strip derivatives over the extended chart, plus the packed
    tapes: dx_i = F_{p_i}, du = sum p_i F_{p_i}, dp_i = -(F_{x_i} + p_i F_u)."""
    n = pde.n
    chart = pde.chart
    F = pde.F
    f_p = [ex.partial(F, n + 1 + i) for i in range(n)]
    f_x = [ex.partial(F, i) for i in range(n)]
    f_u = ex.partial(F, n)
    p_coord = [ex.Coord(chart, n + 1 + i) for i in range(n)]
    dx = list(f_p)
    du: ScalarExpr | None = None
    for i in range(n):
        term = ex.Binary(chart, "*", p_coord[i], f_p[i])
        du = term if du is None else ex.Binary(chart, "+", du, term)
    du = ex.simplify(du)
    dp = [ex.simplify(ex.Unary(chart, "neg",
                               ex.Binary(chart, "+", f_x[i],
                                         ex.Binary(chart, "*", p_coord[i], f_u))))
          for i in range(n)]
    rhs = dx + [du] + dp
    return rhs, tape.pack_exprs(rhs), tape.compile_expr(F)


def _pack_at(pack: tape.Tape, flat: np.ndarray) -> np.ndarray:
    """Every component of a derivative pack at one state; domain errors raise."""
    vals, errs = _kernels.eval_pack(pack, flat.reshape(1, -1))
    if errs.any():
        comp = int(np.argwhere(errs != 0)[0][0])
        raise ex.DomainError(f"strip derivative component {comp} undefined at state")
    return vals[:, 0]


def charpit_rhs(pde: FirstOrderPDE, state: Sequence[float]):
    """Strip derivatives (dx/ds, du/ds, dp/ds) at a state (x, u, p)."""
    n = pde.n
    v = _pack_at(_charpit_system(pde)[1], _state_rows(n, [state])[0])
    return v[:n].copy(), float(v[n]), v[n + 1:].copy()


def _state_rows(n: int, states) -> np.ndarray:
    """States (x, u, p), or flat rows of 2n+1 numbers, as rows (m, 2n+1),
    converted to numbers in one numpy call for the whole fan; a malformed
    state raises naming its index."""
    width = 2 * n + 1
    rows = states if isinstance(states, np.ndarray) else [
        _flat_state(n, state) for state in states]
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
    order: int = 4

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


def _rk4(pack: tape.Tape, states0: np.ndarray, span: float,
         steps: int) -> tuple[np.ndarray, float]:
    """Batched RK4 over [0, span]: the read-only trajectory (steps+1, m, d)
    and the step h; a failed step raises."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h = span / steps
    traj, err = _kernels.rk4(pack, states0, h, steps)
    if err is not None:
        step, comp, code = err
        raise StripIntegrationError(
            f"{_kernels.ERR_MESSAGES[code]} in strip component {comp} "
            f"at step {step}", step)
    traj.flags.writeable = False
    return traj, h


def _audit(audit_tape: tape.Tape, states: np.ndarray, what: str) -> np.ndarray:
    """The audit quantity (F or E) at every state of a fan (samples, m, d),
    as (samples, m); an undefined value raises naming its sample."""
    samples, m, d = states.shape
    # one copy into (d, samples*m) coordinate rows; their .T is the batch
    rows = states.transpose(2, 0, 1).reshape(d, -1)
    vals, errs = _kernels.eval_tape(audit_tape, rows.T)
    if errs.any():
        k = int(np.argwhere(errs != 0)[0][0]) // m
        raise StripIntegrationError(f"{what} undefined at sample {k}", k)
    return vals.reshape(samples, m)


def _fan_strips(s: np.ndarray, states: np.ndarray, drift: np.ndarray,
                h: float) -> list[CharacteristicStrip]:
    """The strips of one fan as read-only views s, x[:, k], u[:, k], p[:, k]
    and drift[:, k] of its (samples, m, 2n+1) states and (samples, m) drift."""
    s.flags.writeable = drift.flags.writeable = False
    n = states.shape[2] // 2
    x, u, p = states[:, :, :n], states[:, :, n], states[:, :, n + 1:]
    return [CharacteristicStrip(s, x[:, k], u[:, k], p[:, k], drift[:, k], h)
            for k in range(states.shape[1])]


def integrate_strip(pde: FirstOrderPDE, initial, s_end: float,
                    steps: int) -> CharacteristicStrip:
    """Integrate one Charpit strip; the initial state must satisfy |F| <= 1e-10."""
    return integrate_strips(pde, [initial], s_end, steps)[0]


def integrate_strips(pde: FirstOrderPDE, initials, s_end: float,
                     steps: int) -> list[CharacteristicStrip]:
    """Integrate a fan of Charpit strips in one batched RK4 run; the strips
    are read-only views of the one fan trajectory."""
    states0 = _state_rows(pde.n, initials)
    _, pack, f_tape = _charpit_system(pde)
    f0, errs0 = _kernels.eval_tape(f_tape, states0)
    if errs0.any():
        raise ex.DomainError("F undefined at an initial state")
    bad = np.abs(f0) > ON_SURFACE_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise OffSurfaceError(
            f"initial state {k} off the surface: |F| = {abs(f0[k]):.3e} > {ON_SURFACE_TOL}")
    traj, h = _rk4(pack, states0, s_end, steps)
    return _fan_strips(np.arange(steps + 1) * h, traj, _audit(f_tape, traj, "F"), h)


# ---------------------------------------------------------------------------
# canonical relations


@lru_cache(maxsize=64)
def _canonical_system(hj: HJEquation):
    """Lifted state derivatives over (t, x.., u, p..):
    dt = 1, dx_j = E_{p_j}, du = sum p_j E_{p_j} - E, dp_j = -E_{x_j}.
    Returns them, their packed tapes and the tape of E, all over that chart."""
    n = hj.n
    dst = lifted_chart(n)
    repl = [ex.Coord(dst, 0)]
    repl += [ex.Coord(dst, 1 + i) for i in range(n)]
    repl += [ex.Coord(dst, n + 2 + i) for i in range(n)]

    def lift(e: ScalarExpr) -> ScalarExpr:
        return ex.compose(e, dst, repl)

    e_p = [ex.partial(hj.E, 1 + n + j) for j in range(n)]
    e_x = [ex.partial(hj.E, 1 + j) for j in range(n)]
    dx = [lift(e) for e in e_p]
    du: ScalarExpr | None = None
    for j in range(n):
        term = ex.Binary(dst, "*", ex.Coord(dst, n + 2 + j), dx[j])
        du = term if du is None else ex.Binary(dst, "+", du, term)
    du = ex.simplify(ex.Binary(dst, "-", du, lift(hj.E)))
    dp = [ex.simplify(ex.Unary(dst, "neg", lift(e))) for e in e_x]
    rhs = [ex.Const(dst, 1.0)] + dx + [du] + dp
    return rhs, tape.pack_exprs(rhs), tape.compile_expr(lift(hj.E))


def canonical_rhs(hj: HJEquation, state: Sequence[float]):
    """Canonical derivatives at (t, x, p): dx_j/dt = dE/dp_j, dp_j/dt =
    -dE/dx_j, and the transported du/dt = sum p_j dE/dp_j - E."""
    n = hj.n
    flat = np.asarray(state, dtype=np.float64)
    if flat.shape != (2 * n + 1,):
        raise ValueError(f"state must be (t, x1..xn, p1..pn) of length {2 * n + 1}")
    # the lifted system never reads u, so any value stands in for it
    v = _pack_at(_canonical_system(hj)[1], np.insert(flat, 1 + n, 0.0))
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
    total: ScalarExpr | None = None
    for j in range(n):
        term = ex.Binary(chart, "-",
                         ex.Binary(chart, "*", ex.partial(E, 1 + n + j),
                                   ex.partial(V, 1 + j)),
                         ex.Binary(chart, "*", ex.partial(E, 1 + j),
                                   ex.partial(V, 1 + n + j)))
        total = term if total is None else ex.Binary(chart, "+", total, term)
    return ex.simplify(total)


def _canonical_fan(hj: HJEquation, initials, t_end: float, steps: int):
    """One batched RK4 run of canonical strips from t = 0: the fan's times,
    its read-only (steps+1, m, 2n+1) states (x, u, p), the E drift and h."""
    states0 = np.insert(_state_rows(hj.n, initials), 0, 0.0, axis=1)
    _, pack, e_tape = _canonical_system(hj)
    traj, h = _rk4(pack, states0, t_end, steps)
    e_vals = _audit(e_tape, traj, "E")
    # dt/ds = 1 for every strip, so all strips share one time column
    return traj[:, 0, 0], traj[:, :, 1:], e_vals - e_vals[0], h


def integrate_canonical_strips(hj: HJEquation, initials, t_end: float,
                               steps: int) -> list[CharacteristicStrip]:
    """Integrate canonical strips (t, x, u, p); initial = (x0, u0, p0) at t=0.

    The strips are read-only views of the one fan trajectory.  The drift
    audit records E along each strip minus its initial value (a conserved
    quantity when E has no explicit time dependence).
    """
    return _fan_strips(*_canonical_fan(hj, initials, t_end, steps))


@dataclass(frozen=True)
class CausticEvent:
    """A fan-Jacobian sign change: the strip fan focuses at (t_star, x_star)."""

    t_star: float
    x0: float
    strip_index: int
    x_star: float
    bistructure: "evolution.BiStructure | None" = None


@dataclass
class HJSolution:
    """Lagrangian solution fan: values ride the moving foot-points x(t; x0)."""

    hj: HJEquation
    x0grid: np.ndarray            # (m,) launch nodes (1-D base)
    t: np.ndarray                 # (steps+1,)
    x: np.ndarray                 # (steps+1, m)
    u: np.ndarray                 # (steps+1, m)
    p: np.ndarray                 # (steps+1, m)
    strips: list[CharacteristicStrip]
    events: list[CausticEvent] = field(default_factory=list)


def solve_hj(hj: HJEquation, u0: ScalarExpr, grid: Sequence[float], t_end: float,
             steps: int, detect_crossings: bool = True) -> HJSolution:
    """Solve du/dt + E = 0 by characteristics from initial data u(0, x) = u0.

    One strip launches per grid node with the symbolic slope p0 = du0/dx
    evaluated there.  Output stays Lagrangian; use resample_nearest for a
    fixed-grid view.  Crossing detection annotates events without aborting.
    t, x, u, p and every strip are read-only views of one fan trajectory.
    """
    if hj.n != 1:
        raise ValueError("solution fans are implemented for a 1-D base")
    if u0.chart != base_chart(1):
        raise ex.ChartMismatchError(f"u0 must be over {base_chart(1).names}")
    nodes = np.asarray(grid, dtype=np.float64).ravel()
    if nodes.size < 1:
        raise ValueError("grid must contain at least one node")
    at_nodes = nodes[:, None]
    u_init = ex.evaluate_many(u0, at_nodes)
    p_init = ex.evaluate_many(ex.partial(u0, 0), at_nodes)
    t, states, drift, h = _canonical_fan(
        hj, np.column_stack([nodes, u_init, p_init]), t_end, steps)
    x, u, p = states.transpose(2, 0, 1)   # read-only views (steps+1, m)
    solution = HJSolution(hj, nodes, t, x, u, p, _fan_strips(t, states, drift, h))
    if detect_crossings and nodes.size >= 3:
        solution.events = detect_caustic(solution)
    return solution


def resample_nearest(solution: HJSolution, grid: Sequence[float]):
    """Nearest-foot-point resampling of u and p onto a fixed x grid."""
    gx = np.asarray(grid, dtype=np.float64).ravel()
    nt = solution.t.size
    u = np.empty((nt, gx.size))
    p = np.empty((nt, gx.size))
    for i in range(nt):
        feet = solution.x[i]
        idx = np.abs(feet[None, :] - gx[:, None]).argmin(axis=1)
        u[i] = solution.u[i, idx]
        p[i] = solution.p[i, idx]
    return u, p


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
    e_vals = ex.evaluate_many(hj.E, states)
    xdot = np.stack([ex.evaluate_many(ex.partial(hj.E, 1 + n + j), states)
                     for j in range(n)], axis=1)
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


def detect_caustic(fan, dt_refine: float = 1e-4,
                   context: BiStructureContext | None = None) -> list[CausticEvent]:
    """Scan a strip fan for sign changes of the launch-Jacobian dx/dx0.

    The Jacobian is estimated by central differences across neighboring
    strips; each sign change is bracketed in time and refined by bisection
    on the linear interpolant to within dt_refine.
    """
    if isinstance(fan, HJSolution):
        x0 = fan.x0grid
        t = fan.t
        x = fan.x
    else:
        strips = list(fan)
        if len(strips) < 3:
            raise FanError("need at least 3 strips")
        base = strips[0].s
        for s in strips[1:]:
            if s.s.shape != base.shape or not np.array_equal(s.s, base):
                raise FanError("strips must share a common sampling")
        if strips[0].n != 1:
            raise FanError("caustic detection is implemented for a 1-D base")
        x = np.stack([s.x[:, 0] for s in strips], axis=1)
        t, x0 = base, x[0]
    if x0.size < 3:
        raise FanError("need at least 3 strips")
    denom = x0[2:] - x0[:-2]
    if np.any(denom == 0.0):
        raise FanError("launch nodes must be distinct")
    jac = (x[:, 2:] - x[:, :-2]) / denom      # (samples, strips - 2)
    a, b = jac[:-1], jac[1:]
    zero = a == 0.0
    zero[0] = False
    hit = zero | (a * b < 0.0)
    # candidates in strip-major order: (strip - 1, sample interval)
    kk, ii = np.argwhere(hit.T).T
    a, b, zero = a[ii, kk], b[ii, kk], zero[ii, kk]
    t0, t1 = t[ii], t[ii + 1]
    # bisection on the linear interpolant, all sign changes at once
    lo, hi, flo = t0.copy(), t1.copy(), a.copy()
    active = ~zero & (hi - lo > dt_refine)
    while active.any():
        mid = 0.5 * (lo + hi)
        fmid = a + (b - a) * (mid - t0) / (t1 - t0)
        left = flo * fmid <= 0.0
        hi = np.where(active & left, mid, hi)
        lo = np.where(active & ~left, mid, lo)
        flo = np.where(active & ~left, fmid, flo)
        active &= hi - lo > dt_refine
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
