"""`verdicts`: many small, distinct expressions, each compiled once and
evaluated on a few dozen points, so tape compilation, the `_tape_for` cache,
per-call kernel overhead and the sampler dominate.

Operations cycle through eight verdicts with known answers:

* ``closed0`` / ``closed1``: ``forms.is_closed`` of theta = df for a 0-form f,
  or theta = dw for a 1-form w on a 3-D chart (answer: CLOSED).  theta is
  written out by the generator, as a user supplies a form; letting exform
  build it would hand the sampler coefficients that ``simplify`` already
  cancelled to zero;
* ``unclosed``: df plus a term g dx_i whose coefficient depends on x_j
  (UNCLOSED);
* ``harmonic``: ``probably_zero(harmonic_residual(f))`` for f the real part of
  a random complex-analytic function (HARMONIC); every other item adds a
  perturbation (NOT HARMONIC);
* ``cr``: both Cauchy-Riemann residuals of (Im h, Re h) vanish; every other
  item perturbs Re h;
* ``relation``: ``NonidenticalRelation(f, omega).is_identical`` with omega = df,
  or df plus a perturbation;
* ``stokes``: ``stokes_residual`` of a 1-form over a random polynomial 2-cell
  is below ``STOKES_TOL``;
* ``antideriv``: ``antiderivative(df, base).coefficients_at(x)`` equals
  f(x) - f(base) evaluated in plain Python.

Grammar.  A scalar is P * E with P a random quadratic polynomial (two terms)
and E one of 1, exp(l), sin(l), cos(l), sqrt(x_a + c) for l linear; the square
root (c in [1.4, 1.8]) is undefined on part of the sampling box, so the
sampler must redraw.  Perturbations are c x_j cos(l).

Three more productions model the magnitudes real inputs reach: the
large-magnitude base scalar exp(k x_a x_b) * l^5 with k in [3, 5], and tiny
(scaled by 1e-12) and overflowing (x_j exp(exp(a x_j + c)), c in [8, 10])
perturbations.  Items from them carry a ``defect`` tag naming the ROADMAP
item 2 defect that can make exform answer wrongly: ``abs-tol`` (absolute
zero-test tolerance) or ``nan-as-zero`` (NaN samples counted as zero).  They
are the defect probes (``probe_ops``), not part of the timed mix: each run
checks them untimed, after the timed operations, and reports every defect
they show.
"""

from __future__ import annotations

import math

import gen
from gen import add, c, mul, v

CATEGORIES = ["closed0", "closed1", "unclosed", "harmonic", "cr", "relation",
              "stokes", "antideriv"]
# (base, perturbation) per turn of the probes; each production meets both parities
PROBE_MIX = [("large", "plain"), ("plain", "tiny"), ("plain", "overflow")]
PROBE_TURNS = 6
PROBE_ID0 = 1_000_000   # ids from here on are defect probes, outside the timed mix
STOKES_TOL = 1e-8
RSS_OPS = 1000           # peak RSS is read after this many operations
ANTIDERIV_RTOL = 1e-8


def scalar(r, dim, base, sqrt=True):
    if base == "large":
        a, b = r.sample(range(dim), 2)
        k = round(r.uniform(3, 5), 3)
        return mul(("exp", mul(c(k), v(a), v(b))), ("^", gen.linear(r, [a, b], 0.5, 1.0), 5))
    p = gen.polynomial(r, dim, 2, 2)
    kind = r.choice(["one", "exp", "sin", "cos"] + (["sqrt"] if sqrt else []))
    if kind == "one":
        return p
    if kind == "sqrt":
        return mul(p, ("sqrt", add(v(r.randrange(dim)), c(round(r.uniform(1.4, 1.8), 3)))))
    axes = sorted(r.sample(range(dim), min(dim, r.choice((1, 2)))))
    return mul(p, (kind, gen.linear(r, axes)))


def perturbation(r, j, kind):
    """A term depending on x_j, with d/dx_j of it not identically zero."""
    if kind == "overflow":
        inner = add(mul(c(round(r.uniform(0.5, 1.0), 3)), v(j)), c(round(r.uniform(8, 10), 3)))
        return mul(v(j), ("exp", ("exp", inner)))
    coef = round(r.choice((-1, 1)) * r.uniform(0.5, 2.0), 3)
    if kind == "tiny":
        coef *= 1e-12
    return mul(c(coef), v(j), ("cos", gen.linear(r, [j])))


def analytic(r, base):
    """(Re h, Im h) of h(z) = sum c_j z^j (degree 3-4), or c exp(k z) if large."""
    if base == "large":
        cr, ci = round(r.uniform(-1, 1), 3), round(r.uniform(-1, 1), 3)
        k = round(r.uniform(4, 6), 3)
        ex_, co, si = ("exp", mul(c(k), v(0))), ("cos", mul(c(k), v(1))), ("sin", mul(c(k), v(1)))
        re = mul(ex_, ("-", mul(c(cr), co), mul(c(ci), si)))
        im = mul(ex_, add(mul(c(ci), co), mul(c(cr), si)))
        return re, im
    coeffs = [complex(round(r.uniform(-2, 2), 2), round(r.uniform(-2, 2), 2))
              for _ in range(r.randint(4, 5))]
    re_terms, im_terms = [], []
    for j, cj in enumerate(coeffs):
        for m in range(j + 1):
            w = cj * math.comb(j, m) * (1j ** m)   # x^(j-m) (i y)^m
            mono = [v(0)] * (j - m) + [v(1)] * m
            for value, terms in ((w.real, re_terms), (w.imag, im_terms)):
                if value != 0:
                    terms.append(mul(c(round(value, 12)), *mono) if mono else c(value))
    return add(*re_terms), add(*im_terms)


def make_op(seed: int, i: int) -> dict:
    r = gen.rng_for(seed, "op", i)
    k = i - PROBE_ID0 if i >= PROBE_ID0 else i
    cat = CATEGORIES[k % len(CATEGORIES)]
    turn = k // len(CATEGORIES)
    base, pert = PROBE_MIX[turn % len(PROBE_MIX)] if i >= PROBE_ID0 else ("plain", "plain")
    dim = 3 if cat == "closed1" else 2 if cat in ("harmonic", "cr") else 2 + turn % 2
    names = [f"x{k + 1}" for k in range(dim)]
    spec = {"id": i, "cat": cat, "dim": dim, "names": names}
    if cat in ("harmonic", "cr", "relation"):
        expect_zero = turn % 2 == 0
    else:
        expect_zero = cat != "unclosed"
    spec["expect"] = expect_zero
    tags = []
    if base == "large":
        tags.append("abs-tol")
    if not expect_zero:
        j = r.randrange(dim)
        i_ = r.choice([k for k in range(dim) if k != j]) if dim > 1 else j
        spec["pert"] = (i_, perturbation(r, j, pert))
        if pert == "tiny":
            tags.append("abs-tol")
        elif pert == "overflow":
            tags.append("nan-as-zero")
            spec["accept_error"] = True
    if tags:
        spec["defect"] = ",".join(sorted(set(tags)))
    if cat in ("harmonic", "cr"):
        spec["re"], spec["im"] = analytic(r, base)
    elif cat == "closed1":
        spec["omega"] = [scalar(r, dim, base if k == 0 else "plain") for k in range(dim)]
    elif cat == "stokes":
        # cells reach |x| = 2.3, outside the square root's domain
        spec["omega"] = [scalar(r, dim, base if k == 0 else "plain", sqrt=False)
                         for k in range(dim)]
        spec["cell"] = [add(c(round(r.uniform(-0.5, 0.5), 3)),
                            mul(c(round(r.uniform(0.5, 1.0), 3)), v(0)),
                            mul(c(round(r.uniform(-0.5, 0.5), 3)), v(1)),
                            mul(c(round(r.uniform(-0.3, 0.3), 3)), v(0), v(1)))
                        for _ in range(dim)]
    else:
        spec["f"] = scalar(r, dim, base)
    if cat == "closed1":
        w = spec.pop("omega")
        spec["theta"] = [([a, b], ("-", gen.diff(w[b], a), gen.diff(w[a], b)))
                         for a in range(dim) for b in range(a + 1, dim)]
    elif cat in ("closed0", "unclosed", "relation", "antideriv"):
        grad = [gen.diff(spec["f"], k) for k in range(dim)]
        if "pert" in spec:
            axis, term = spec["pert"]
            grad[axis] = add(grad[axis], term)
        spec["theta"] = [([k], t) for k, t in enumerate(grad)]
    if cat == "antideriv":
        spec["base"] = [round(r.uniform(-1, 1), 4) for _ in range(dim)]
        spec["at"] = [round(r.uniform(-1, 1), 4) for _ in range(dim)]
    return spec


def probe_ops(seed: int) -> list[dict]:
    """The defect probes: every item of PROBE_TURNS turns that carries a tag."""
    specs = (make_op(seed, PROBE_ID0 + k) for k in range(PROBE_TURNS * len(CATEGORIES)))
    return [spec for spec in specs if "defect" in spec]


def warmup_ops(seed: int) -> list[dict]:
    """One item per category, on ids no timed operation uses."""
    return [make_op(seed, -8 * 40 + k) for k in range(len(CATEGORIES))]


class Runner:
    def __init__(self, seed: int):
        from exform import dual, evolution, expr, forms
        self.ex, self.forms, self.dual, self.evolution = expr, forms, dual, evolution

    def run(self, spec):
        ex, forms, dual = self.ex, self.forms, self.dual
        names = spec["names"]
        ch = ex.chart(*names)

        def parse(t):
            return ex.parse_expr(gen.text(t, names), ch)

        def form(terms):
            degree = len(terms[0][0])
            return forms.DifferentialForm(ch, degree, {tuple(i): parse(t) for i, t in terms})

        cat = spec["cat"]
        if cat in ("closed0", "closed1", "unclosed"):
            return forms.is_closed(form(spec["theta"]))
        if cat == "harmonic":
            f = parse(spec["re"])
            if "pert" in spec:
                f = f + parse(spec["pert"][1])
            return ex.probably_zero(dual.harmonic_residual(f))
        if cat == "cr":
            u, w = parse(spec["im"]), parse(spec["re"])
            if "pert" in spec:
                w = w + parse(spec["pert"][1])
            first, second = dual.cauchy_riemann_residuals(u, w)
            return ex.probably_zero(first) and ex.probably_zero(second)
        if cat == "relation":
            psi = forms.scalar_form(parse(spec["f"]))
            return self.evolution.NonidenticalRelation(psi, form(spec["theta"])).is_identical()
        if cat == "stokes":
            theta = forms.one_form(ch, [parse(t) for t in spec["omega"]])
            pchart = forms.param_chart(2)
            cell = forms.Cell(ch, 2, tuple(ex.parse_expr(gen.text(t, ["s1", "s2"]), pchart)
                                           for t in spec["cell"]))
            return forms.stokes_residual(theta, cell)
        field = forms.antiderivative(form(spec["theta"]), spec["base"])
        return field.coefficients_at(spec["at"])[()]

    def digest(self, spec, out):
        return {"out": out if isinstance(out, bool) else float(out)}


def check(spec, digest) -> str | None:
    out = digest["out"]
    cat = spec["cat"]
    if cat == "stokes":
        if not abs(out) <= STOKES_TOL:
            return f"stokes residual {out!r} above {STOKES_TOL}"
        return None
    if cat == "antideriv":
        ref = gen.evaluate(spec["f"], spec["at"]) - gen.evaluate(spec["f"], spec["base"])
        if not abs(out - ref) <= ANTIDERIV_RTOL * max(1.0, abs(ref)):
            return f"antiderivative {out!r}, f(x) - f(base) = {ref!r}"
        return None
    if out is not spec["expect"]:
        return f"{cat}: expected {spec['expect']}, got {out}"
    return None
