"""`fan`: characteristic-strip fans, where the `_kernels` RK4 interpreter works.

Each operation is one ``charpde.solve_hj`` call (1-D base, caustic detection,
``poincare_residual`` on the first strip) or one Charpit ``integrate_strips``
fan with n = 2.  The Hamiltonians and PDEs form a small family drawn once per
seed and compiled during set-up; each operation draws fresh initial data.

Family (``KINDS`` fixes how often each appears, so every run has the same mix):

* ``quad``: E = a p^2/2 + b p, data u0 = k x^2/2 + m x + c0, k < 0 on every
  other operation (focusing: a caustic at t* = -1/(a k));
* ``osc``: E = p^2/2 + w^2 x^2/2, same data family (always focusing);
* ``eik``: F = p1^2 + p2^2 - c^2;  ``growth``: F = p1 + p2 - u;
* ``blowup``: F = p1 - u^2 with u0 > 0.5, which blows up at s = 1/u0 < 2 = s_end.
  The right outcome is a loud exform error; returning non-finite strips
  silently is the ROADMAP item 2 RK4 defect (tag ``rk4-blowup``).

Strip counts cycle through 8, 64 and 512, at 200 RK4 steps each.  The timed
mix holds the members exform can get right; ``blowup`` fans, one per strip
count, are defect probes (``probe_ops``): each run sets them up and checks
them untimed, after the timed operations, and reports every defect they show.  References
are closed forms (Lagrangian solutions for every member, the Hopf-Lax formula
for ``quad`` before the caustic), plus energy drift and finiteness of every
strip; none of them goes through exform.
"""

from __future__ import annotations

import math

import numpy as np

from gen import rng_for

KINDS = ["quad", "osc", "eik", "quad", "growth", "osc", "quad", "eik",
         "quad", "osc"]
PROBE_ID0 = 1_000_000   # ids from here on are defect probes, outside the timed mix
STRIP_COUNTS = [8, 64, 512]
STEPS = 200
RSS_OPS = 100           # peak RSS is read after this many operations
T_END = 1.5
RTOL = 1e-7
DRIFT_TOL = 1e-8
POINCARE_TOL = 1e-6
CAUSTIC_TOL = 2e-3
FAMILY_SIZE = {"quad": 3, "osc": 2, "eik": 1, "growth": 1, "blowup": 1}


def family(seed: int) -> dict:
    """The seed's systems: kind -> list of parameter dicts with the text."""
    r = rng_for(seed, "family")
    fam = {}
    fam["quad"] = []
    for _ in range(FAMILY_SIZE["quad"]):
        a, b = round(r.uniform(0.6, 1.4), 3), round(r.uniform(-0.5, 0.5), 3)
        fam["quad"].append({"a": a, "b": b, "E": f"{a}*p1^2/2 + ({b})*p1"})
    fam["osc"] = []
    for _ in range(FAMILY_SIZE["osc"]):
        w = round(r.uniform(0.6, 1.5), 3)
        fam["osc"].append({"w": w, "E": f"p1^2/2 + {w * w / 2!r}*x1^2"})
    c = round(r.uniform(0.5, 1.5), 3)
    fam["eik"] = [{"c": c, "F": f"p1^2 + p2^2 - {c * c!r}"}]
    fam["growth"] = [{"F": "p1 + p2 - u"}]
    fam["blowup"] = [{"F": "p1 - u^2"}]
    return fam


def make_op(seed: int, i: int) -> dict:
    r = rng_for(seed, "op", i)
    kind = "blowup" if i >= PROBE_ID0 else KINDS[i % len(KINDS)]
    strips = STRIP_COUNTS[i % len(STRIP_COUNTS)]
    system = r.randrange(FAMILY_SIZE[kind])
    spec = {"id": i, "kind": kind, "system": system, "strips": strips,
            "steps": STEPS}
    if kind in ("quad", "osc"):
        sign = -1.0 if (i // len(KINDS)) % 2 == 0 else 1.0
        k = round(sign * r.uniform(0.4, 1.2), 3)
        m = round(r.uniform(-0.5, 0.5), 3)
        c0 = round(r.uniform(-1.0, 1.0), 3)
        spec.update(k=k, m=m, c0=c0, t_end=T_END,
                    u0=f"{k}*x1^2/2 + ({m})*x1 + ({c0})")
        return spec
    rows = []
    cc = family(seed)["eik"][0]["c"]
    for _ in range(strips):
        x0 = [r.uniform(-1, 1), r.uniform(-1, 1)]
        if kind == "eik":
            theta = r.uniform(0, 2 * math.pi)
            p0 = [cc * math.cos(theta), cc * math.sin(theta)]
            u0 = r.uniform(-1, 1)
        elif kind == "growth":
            p0 = [r.uniform(-1, 1), r.uniform(-1, 1)]
            u0 = p0[0] + p0[1]
        else:
            u0 = r.uniform(0.6, 1.0)
            p0 = [u0 * u0, r.uniform(-1, 1)]
        rows.append((x0, u0, p0))
    spec.update(initials=rows, s_end=2.0 if kind == "blowup" else 1.0)
    if kind == "blowup":
        spec.update(accept_error=True, defect="rk4-blowup")
    return spec


def probe_ops(seed: int) -> list[dict]:
    """The defect probes: one ``blowup`` fan per strip count."""
    return [make_op(seed, PROBE_ID0 + j) for j in range(len(STRIP_COUNTS))]


def warmup_ops(seed: int) -> list[dict]:
    """One small operation per distinct system, to compile every system."""
    ops = []
    for kind, members in family(seed).items():
        for system in range(len(members)):
            # an id of the right kind that neither a timed operation nor a probe uses
            offset = 30 * (1 + system)
            i = PROBE_ID0 + offset if kind == "blowup" else KINDS.index(kind) - offset
            spec = make_op(seed, i)
            spec.update(system=system, steps=4, strips=8)
            if "initials" in spec:
                spec["initials"] = spec["initials"][:8]
            if kind == "blowup":
                spec["s_end"] = 0.1
            ops.append(spec)
    return ops


class Runner:
    """Worker side: owns the compiled systems; imports exform (set-up)."""

    def __init__(self, seed: int):
        from exform import charpde
        self.charpde = charpde
        self.family = family(seed)
        self.systems = {}
        for kind, members in self.family.items():
            for k, params in enumerate(members):
                if kind in ("quad", "osc"):
                    self.systems[kind, k] = charpde.HJEquation.from_text(1, params["E"])
                else:
                    self.systems[kind, k] = charpde.FirstOrderPDE.from_text(2, params["F"])

    def run(self, spec):
        cp = self.charpde
        system = self.systems[spec["kind"], spec["system"]]
        if "u0" in spec:
            from exform import expr as ex
            u0 = ex.parse_expr(spec["u0"], cp.base_chart(1))
            grid = np.linspace(-1.0, 1.0, spec["strips"])
            sol = cp.solve_hj(system, u0, grid, spec["t_end"], spec["steps"])
            return sol, cp.poincare_residual(sol.strips[0], system)
        return cp.integrate_strips(system, spec["initials"], spec["s_end"],
                                   spec["steps"])

    def digest(self, spec, out):
        if "u0" in spec:
            sol, poincare = out
            drift = np.stack([s.drift for s in sol.strips], axis=1)
            events = [e.t_star for e in sol.events]
            problems = check_hj(spec, self.family[spec["kind"]][spec["system"]],
                                sol.t, sol.x, sol.u, sol.p, drift, poincare, events)
        else:
            s = out[0].s
            x = np.stack([st.x for st in out], axis=1)
            u = np.stack([st.u for st in out], axis=1)
            p = np.stack([st.p for st in out], axis=1)
            drift = np.stack([st.drift for st in out], axis=1)
            problems = check_charpit(spec, self.family[spec["kind"]][spec["system"]],
                                     s, x, u, p, drift)
        return {"problems": problems,
                "strip_steps": spec["strips"] * spec["steps"]}


def check(spec, digest) -> str | None:
    """Parent side: the worker already compared against the closed forms."""
    return "; ".join(digest["problems"]) or None


def _rel_err(got, ref) -> float:
    return float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))


def check_hj(spec, params, t, x, u, p, drift, poincare, events) -> list[str]:
    """Compare a 1-D HJ fan, arrays (steps+1, strips), with its closed form."""
    problems = []
    arrays = (t, x, u, p, drift, np.asarray(poincare))
    if not all(np.all(np.isfinite(arr)) for arr in arrays):
        return ["non-finite value in the strip fan"]
    k, m, c0 = spec["k"], spec["m"], spec["c0"]
    x0 = np.linspace(-1.0, 1.0, spec["strips"])[None, :]
    tt = t[:, None]
    p0 = k * x0 + m
    u_init = k * x0 ** 2 / 2 + m * x0 + c0
    if spec["kind"] == "quad":
        a, b = params["a"], params["b"]
        X = x0 + (a * p0 + b) * tt
        P = p0 + 0 * tt
        U = u_init + tt * a * p0 ** 2 / 2
        denom = 1.0 + a * k * tt
        before = np.broadcast_to(denom > 0.05, u.shape)
        xs = x - b * tt
        hopf_lax = c0 + (k * xs ** 2 + 2 * m * xs - a * tt * m ** 2) / (2 * denom)
        if before.any() and _rel_err(u[before], hopf_lax[before]) > RTOL:
            problems.append("u departs from the Hopf-Lax solution")
        t_star = -1.0 / (a * k) if k < 0 else math.inf
        jac_first = t_star
    else:
        w = params["w"]
        cs, sn = np.cos(w * tt), np.sin(w * tt)
        X = x0 * cs + p0 / w * sn
        P = -w * x0 * sn + p0 * cs
        U = u_init + 0.5 * ((p0 ** 2 - w ** 2 * x0 ** 2) * np.sin(2 * w * tt) / (2 * w)
                            + x0 * p0 * (np.cos(2 * w * tt) - 1.0))
        jac_first = (math.atan2(k / w, 1.0) + math.pi / 2) / w
    for name, got, ref in (("x", x, X), ("u", u, U), ("p", p, P)):
        if _rel_err(got, ref) > RTOL:
            problems.append(f"{name} departs from the closed-form strips")
    energy = np.abs(drift).max()
    if energy > DRIFT_TOL:
        problems.append(f"energy drift {energy:.3e} above {DRIFT_TOL}")
    if abs(poincare) > POINCARE_TOL:
        problems.append(f"poincare residual {poincare:.3e} above {POINCARE_TOL}")
    t_end = float(t[-1])
    if spec["strips"] >= 3:
        if jac_first < t_end - CAUSTIC_TOL:
            if not events or abs(min(events) - jac_first) > CAUSTIC_TOL:
                got = min(events) if events else None
                problems.append(f"earliest caustic {got} not at t* = {jac_first:.6f}")
        elif jac_first > t_end + CAUSTIC_TOL and events:
            problems.append(f"caustic reported at {min(events)} but t* = {jac_first:.6f}")
    return problems


def check_charpit(spec, params, s, x, u, p, drift) -> list[str]:
    """Compare a Charpit fan, arrays (steps+1, strips[, 2]), with its closed form."""
    arrays = (s, x, u, p, drift)
    if not all(np.all(np.isfinite(arr)) for arr in arrays):
        return ["non-finite strip values returned without an error"]
    init = spec["initials"]
    x0 = np.array([row[0] for row in init])[None, :, :]
    u0 = np.array([row[1] for row in init])[None, :]
    p0 = np.array([row[2] for row in init])[None, :, :]
    ss = s[:, None]
    kind = spec["kind"]
    if kind == "eik":
        X, U, P = x0 + 2 * p0 * ss[..., None], u0 + 2 * params["c"] ** 2 * ss, p0 + 0 * ss[..., None]
    elif kind == "growth":
        X = x0 + ss[..., None]
        U, P = u0 * np.exp(ss), p0 * np.exp(ss)[..., None]
    else:
        with np.errstate(all="ignore"):
            U = u0 / (1.0 - u0 * ss)
        X, P = None, None
        if not np.all(np.isfinite(U)):
            return ["strips returned past the blow-up time s = 1/u0"]
    problems = []
    for name, got, ref in (("x", x, X), ("u", u, U), ("p", p, P)):
        if ref is not None and _rel_err(got, ref) > RTOL:
            problems.append(f"{name} departs from the closed-form strips")
    worst = np.abs(drift).max()
    if worst > DRIFT_TOL:
        problems.append(f"|F| drift {worst:.3e} above {DRIFT_TOL}")
    return problems
