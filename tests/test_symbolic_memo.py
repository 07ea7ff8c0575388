"""Parity of the memoised `simplify` and `partial` with the rebuilding
reference in `simplify_reference`: identical printed text, `==` trees and
identical `repr` (which tells -0.0 from 0.0), on seeded trees."""

import numpy as np
import pytest

from exform import expr as ex
from exform.expr import Binary, Power, Unary

import simplify_reference as ref
from conftest import rand_expr

CH = ex.chart("x1", "x2", "x3")
X1, X2, X3 = ex.coords(CH)
SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.0)


def wild_expr(rng, depth=4):
    """rand_expr plus what triggers every rewrite: 0, -0, 1 constants,
    negation, division, ln, sqrt, exp and negative powers."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return ex.const(CH, SPECIAL[int(rng.integers(len(SPECIAL)))])
        return rand_expr(rng, CH, depth=1)

    def sub():
        return wild_expr(rng, depth - 1)

    r = rng.random()
    if r < 0.15:
        return -sub()
    if r < 0.25:
        return sub() / sub()
    if r < 0.35:
        fn = (ex.sin, ex.cos, ex.exp, ex.ln, ex.sqrt)[int(rng.integers(5))]
        return fn(sub())
    if r < 0.45:
        return sub() ** int(rng.integers(-2, 4))
    return Binary(CH, ("+", "-", "*")[int(rng.integers(3))], sub(), sub())


def assemble(rng, parts):
    """A new tree over already-simplified parts, as the callers of
    `simplify` build them: only the top levels are new."""
    a, b = (parts[int(i)] for i in rng.integers(len(parts), size=2))
    r = rng.random()
    if r < 0.2:
        return -a
    if r < 0.3:
        return Power(CH, a, int(rng.integers(-1, 3)))
    if r < 0.4:
        return Unary(CH, ("sin", "exp")[int(rng.integers(2))], a)
    inner = Binary(CH, ("+", "-", "*", "/")[int(rng.integers(4))], a, b)
    if rng.random() < 0.5:
        return inner
    return Binary(CH, ("+", "-")[int(rng.integers(2))], inner, ex.const(CH, 0.0))


def assert_same(got, want):
    assert ex.to_text(got) == ex.to_text(want)
    assert got == want
    assert repr(got) == repr(want)


@pytest.fixture
def corpus():
    rng = np.random.default_rng(20261017)
    return [wild_expr(rng) for _ in range(320)]


def test_simplify_matches_reference(corpus):
    for e in corpus:
        assert_same(ex.simplify(e), ref.simplify(e))


def test_simplify_of_marked_parts_matches_reference(corpus):
    rng = np.random.default_rng(7)
    parts = [ex.simplify(e) for e in corpus[:60]]
    for _ in range(400):
        e = assemble(rng, parts)
        assert_same(ex.simplify(e), ref.simplify(e))
        parts.append(ex.simplify(e))


def test_partial_chains_match_reference(corpus):
    rng = np.random.default_rng(11)
    for e in corpus[:150]:
        axes = [int(a) for a in rng.integers(CH.dim, size=int(rng.integers(1, 5)))]
        if rng.random() < 0.5:
            axes = axes[:1] * len(axes)  # repeated: d^k/dx^k
        got, want = e, e
        for axis in axes:
            got, want = ex.partial(got, axis), ref.partial(want, axis)
            assert_same(got, want)
        # the same chain again, now through the memos
        again = e
        for axis in axes:
            again = ex.partial(again, axis)
        assert again is got


def test_mixed_partials_through_memo_match_reference(corpus):
    for e in corpus[:60]:
        for a in range(CH.dim):
            for b in range(CH.dim):
                assert_same(ex.partial(ex.partial(e, a), b),
                            ref.partial(ref.partial(e, a), b))


def test_simplify_returns_its_fixpoint(corpus):
    for e in corpus:
        s = ex.simplify(e)
        assert ex.simplify(s) is s


def test_unchanged_tree_is_kept():
    e = X1 * ex.sin(X2) + X3 ** 2
    assert ex.simplify(e) is e


def test_partial_is_memoised_per_axis():
    e = X1 * X2 ** 2
    assert ex.partial(e, 0) is ex.partial(e, 0)
    assert ex.partial(e, 1) is ex.partial(e, 1)
    assert ex.partial(e, 0) != ex.partial(e, 1)
    assert ex.to_text(ex.partial(e, 0)) == "x2^2"
    with pytest.raises(ValueError):
        ex.partial(e, 3)


def test_partial_copies_marked_operands_without_simplify(monkeypatch):
    """An operand copied from a simplified tree into its derivative is kept
    as it is: with a counting wrapper in place of `ex.simplify`, as the
    benchmark's tracer installs, `partial` makes no call."""
    e = ex.simplify(ex.sin(X1 * X2) * ex.exp(X1) + X1 ** 3 / X2)
    calls = []
    simplify = ex.simplify
    monkeypatch.setattr(ex, "simplify", lambda t: calls.append(t) or simplify(t))
    d = ex.partial(e, 0)
    assert calls == []
    assert ex.to_text(d) == ex.to_text(ref.partial(e, 0))


def test_memos_stay_out_of_eq_hash_and_repr(corpus):
    for e in corpus[:80]:
        s = ex.simplify(e)
        for axis in range(CH.dim):
            ex.partial(s, axis)
        fresh = ex.compose(s, CH, ex.coords(CH))  # an unmarked copy
        assert fresh is not s
        assert fresh == s
        assert hash(fresh) == hash(s)
        assert repr(fresh) == repr(s)


def test_equal_nodes_keep_separate_memos():
    # 0.0 and -0.0 are distinct constants; a divisor keeps its sign through partial
    pos = X1 * (X2 / ex.const(CH, 0.0))
    neg = X1 * (X2 / ex.const(CH, -0.0))
    assert pos != neg
    assert repr(ex.partial(pos, 0)) != repr(ex.partial(neg, 0))
    assert_same(ex.partial(pos, 0), ref.partial(pos, 0))
    assert_same(ex.partial(neg, 0), ref.partial(neg, 0))
