"""`symbolic`: derivative-tree work in `expr.partial`, `expr.simplify` and
`evolution`, where `_kernels` does almost nothing.

Operations cycle through three tasks (3 curvature : 2 commutator : 1 partial);
connections alternate between 3-D and 4-D charts:

* ``curvature``: parse a connection, then ``evolution.curvature`` and
  ``evolution.torsion``;
* ``commutator``: parse a 1-form and a connection, then
  ``evolution.evolutionary_commutator(...).total()`` (a 2-form);
* ``partial``: parse f on a 3-D chart, take a mixed partial of order 2, 2, 3,
  4 or 5 (in turn), then one ``expr.evaluate``.

Every operation draws new expressions, so no result can be reused from an
earlier one.  Grammar: a connection has 2n nonzero entries at random places,
each c * m with m one of x_a, x_a x_b, x_a^2, sin(l), cos(l), exp(l) for l
linear in one or two coordinates, every kind equally often; a 1-form
component is a sum of two such terms; f is U1(l1) * U2(l2) / (1 + l3^2) with
U in {sin, cos, exp}, every coordinate in two of the three factors, and an
order-k partial differentiates along axes 0, 1, ..., k-1 (mod n), in that
order.  Fixing these multisets keeps the cost of an operation from depending
on the seed more than the seed's expressions must.  References are computed without exform at three
seeded points (see ``reference``) and compared with relative tolerance
``RTOL`` on a scale floored at 1.
"""

from __future__ import annotations

import math

import gen
from gen import add, c, mul, v

# The mix puts the median inside the 3-D curvature cluster and the 90th
# percentile inside the 4-D one, not on an edge between two clusters, where
# either would jump with the machine's noise.
TASKS = ["curvature", "commutator", "curvature", "partial", "curvature", "commutator"]
ORDERS = [2, 2, 3, 4, 5]
POINTS = 3
RSS_OPS = 200           # peak RSS is read after this many operations
RTOL = 1e-7


KINDS = ["x", "xx", "x2", "sin", "cos", "exp"]


def _term(r, dim, kind):
    a, b = r.sample(range(dim), 2)
    coef = c(round(r.choice((-1, 1)) * r.uniform(0.5, 2.0), 3))
    if kind == "x":
        body = v(a)
    elif kind == "xx":
        body = mul(v(a), v(b))
    elif kind == "x2":
        body = ("^", v(a), 2)
    else:
        body = (kind, gen.linear(r, sorted({a, b} if r.random() < 0.5 else {a})))
    return mul(coef, body)


def _kinds(r, count):
    """Every term kind equally often, in a seeded order."""
    kinds = [KINDS[j % len(KINDS)] for j in range(count)]
    r.shuffle(kinds)
    return kinds


def make_op(seed: int, i: int) -> dict:
    r = gen.rng_for(seed, "op", i)
    task = TASKS[i % len(TASKS)]
    dim = 3 if task == "partial" else 3 + (i // len(TASKS)) % 2
    names = [f"x{k + 1}" for k in range(dim)]
    spec = {"id": i, "task": task, "dim": dim, "names": names,
            "points": [[round(r.uniform(-1, 1), 6) for _ in range(dim)]
                       for _ in range(POINTS)]}
    if task in ("curvature", "commutator"):
        slots = [(a, b, d) for a in range(dim) for b in range(dim) for d in range(dim)]
        kinds = _kinds(r, 2 * dim)
        spec["gamma"] = [(list(key), _term(r, dim, kind))
                         for key, kind in zip(r.sample(slots, 2 * dim), kinds)]
    if task == "commutator":
        kinds = _kinds(r, 2 * dim)
        spec["omega"] = [add(_term(r, dim, kinds[2 * k]), _term(r, dim, kinds[2 * k + 1]))
                         for k in range(dim)]
    if task == "partial":
        order = ORDERS[(i // len(TASKS)) % len(ORDERS)]
        pairs = [[0, 1], [1, 2], [0, 2]]
        u1, u2 = r.choice(["sin", "cos", "exp"]), r.choice(["sin", "cos", "exp"])
        l3 = gen.linear(r, pairs[2])
        spec["f"] = ("/", mul((u1, gen.linear(r, pairs[0])), (u2, gen.linear(r, pairs[1]))),
                     add(c(1), ("^", l3, 2)))
        spec["axes"] = [m % dim for m in range(order)]
    return spec


def probe_ops(seed: int) -> list[dict]:
    """No production of this corpus is known to trip an exform defect."""
    return []


def warmup_ops(seed: int) -> list[dict]:
    """One small operation of each task, on ids no timed operation uses."""
    ops = []
    for k, task in enumerate(TASKS):
        spec = make_op(seed, -60 + k)  # negative ids: never timed
        if task == "partial":
            spec["axes"] = spec["axes"][:2]
        ops.append(spec)
    return ops


class Runner:
    def __init__(self, seed: int):
        from exform import evolution, expr
        self.ex, self.evolution = expr, evolution

    def _connection(self, spec, ch):
        gamma = {tuple(key): self.ex.parse_expr(gen.text(t, spec["names"]), ch)
                 for key, t in spec["gamma"]}
        return self.evolution.Connection(ch, gamma)

    def run(self, spec):
        ex, evo = self.ex, self.evolution
        ch = ex.chart(*spec["names"])
        if spec["task"] == "curvature":
            conn = self._connection(spec, ch)
            return evo.curvature(conn), evo.torsion(conn)
        if spec["task"] == "commutator":
            from exform import forms
            conn = self._connection(spec, ch)
            omega = forms.one_form(ch, [ex.parse_expr(gen.text(t, spec["names"]), ch)
                                        for t in spec["omega"]])
            return evo.evolutionary_commutator(omega, conn).total()
        e = ex.parse_expr(gen.text(spec["f"], spec["names"]), ch)
        for axis in spec["axes"]:
            e = ex.partial(e, axis)
        return e, ex.evaluate(e, spec["points"][0])

    def digest(self, spec, out):
        import numpy as np
        from exform import _kernels, tape
        ex = self.ex
        pts = np.array(spec["points"], dtype=float)

        def values(e):
            # compile directly: going through ex.evaluate_many would fill the
            # program's tape cache with the checker's expressions
            if ex.is_zero_const(e):
                return [0.0] * len(pts)
            vals, errs = _kernels.eval_tape(tape.compile_expr(e), pts)
            return [float(x) if not err else math.nan for x, err in zip(vals, errs)]

        if spec["task"] == "curvature":
            curv, tors = out
            return {"R": [values(e) for a in curv for b in a for d in b for e in d],
                    "T": [values(e) for a in tors for b in a for e in b]}
        if spec["task"] == "commutator":
            n = spec["dim"]
            return {"K": [values(out.k(i, j)) for i in range(n) for j in range(i + 1, n)]}
        e, first = out
        return {"f": [[first] + values(e)[1:]]}


# ---------------------------------------------------------------------------
# references (parent process)


def reference(spec) -> dict:
    """The digest's quantities, computed without exform at the points.

    Derivatives come from forward-mode nilpotent arithmetic
    (``gen.mixed_partial``), which the benchmark's tests check against sympy.
    sympy itself is too slow to run here: about 70 ms per connection task and
    0.2-1.8 s per order-4/5 mixed partial, longer than the operations.
    """
    n, pts = spec["dim"], spec["points"]
    if spec["task"] == "partial":
        return {"f": [[gen.mixed_partial(spec["f"], p, spec["axes"]) for p in pts]]}
    idx = range(n)
    R, T, K = [], [], []
    for p in pts:
        g, dg = {}, {}
        for key, t in spec["gamma"]:
            g[tuple(key)] = gen.mixed_partial(t, p, [])
            dg[tuple(key)] = [gen.mixed_partial(t, p, [k]) for k in idx]

        def G(a, b, d):
            return g.get((a, b, d), 0.0)

        def dG(a, b, d, k):
            return dg[(a, b, d)][k] if (a, b, d) in dg else 0.0

        if spec["task"] == "curvature":
            R.append([dG(mu, nu, sg, rho) - dG(mu, nu, rho, sg)
                      + sum(G(mu, lam, rho) * G(lam, nu, sg) - G(mu, lam, sg) * G(lam, nu, rho)
                            for lam in idx)
                      for mu in idx for nu in idx for rho in idx for sg in idx])
            T.append([G(r, m, nu) - G(r, nu, m) for r in idx for m in idx for nu in idx])
        else:
            a = [gen.mixed_partial(t, p, []) for t in spec["omega"]]
            da = [[gen.mixed_partial(t, p, [k]) for k in idx] for t in spec["omega"]]
            K.append([da[j][i] - da[i][j] + sum((G(s, j, i) - G(s, i, j)) * a[s] for s in idx)
                      for i in idx for j in range(i + 1, n)])
    # rows per point -> rows per entry, as in the digest
    if spec["task"] == "curvature":
        return {"R": [list(col) for col in zip(*R)], "T": [list(col) for col in zip(*T)]}
    return {"K": [list(col) for col in zip(*K)]}


def compare(got: dict, ref: dict) -> str | None:
    for name, rows in ref.items():
        for k, (want, have) in enumerate(zip(rows, got[name])):
            for w, h in zip(want, have):
                if not abs(h - w) <= RTOL * max(1.0, abs(w)):
                    return f"{name}[{k}] = {h!r}, reference gives {w!r}"
    return None


def check(spec, digest) -> str | None:
    return compare(digest, reference(spec))
