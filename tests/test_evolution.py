
import numpy as np
import pytest

from exform import evolution as ev
from exform import expr as ex
from exform import forms

import simplify_reference as ref
from conftest import rand_expr, rand_form

CH2 = ex.chart("x1", "x2")
X1, X2 = ex.coords(CH2)


def rand_connection(rng, chart, symmetric=False, entries=3):
    gamma = {}
    n = chart.dim
    for _ in range(entries):
        r, m, nu = (int(v) for v in rng.integers(0, n, size=3))
        coeff = rand_expr(rng, chart, depth=2, trig=False)
        gamma[(r, m, nu)] = coeff
        if symmetric:
            gamma[(r, nu, m)] = coeff
    return ev.Connection(chart, gamma)


class TestTorsion:
    def test_symmetric_connection_vanishes(self):
        conn = ev.Connection(CH2, {(0, 0, 1): X2, (0, 1, 0): X2})
        t = ev.torsion(conn)
        assert all(ex.is_zero_const(t[r][m][n])
                   for r in range(2) for m in range(2) for n in range(2))

    def test_single_entry(self):
        conn = ev.Connection(CH2, {(0, 0, 1): X2})
        t = ev.torsion(conn)
        assert t[0][0][1] == X2
        assert t[0][1][0] == ex.simplify(-X2)

    def test_flat_connection(self):
        t = ev.torsion(ev.Connection(CH2))
        assert all(ex.is_zero_const(t[r][m][n])
                   for r in range(2) for m in range(2) for n in range(2))

    def test_antisymmetry_property(self, rng):
        for _ in range(10):
            conn = rand_connection(rng, CH2)
            t = ev.torsion(conn)
            for r in range(2):
                for m in range(2):
                    for n in range(2):
                        total = ex.Binary(CH2, "+", t[r][m][n], t[r][n][m])
                        assert ex.probably_zero(total)


class TestCurvature:
    def test_flat(self):
        r = ev.curvature(ev.Connection(CH2))
        assert all(ex.is_zero_const(r[a][b][c][d])
                   for a in range(2) for b in range(2)
                   for c in range(2) for d in range(2))

    def test_constant_connection_vs_index_loop_oracle(self, rng):
        # quadratic terms only; brute-force index summation as the oracle
        values = rng.uniform(-1, 1, size=(2, 2, 2))
        conn = ev.Connection(
            CH2, {(r, m, n): ex.const(CH2, values[r, m, n])
                  for r in range(2) for m in range(2) for n in range(2)})
        r = ev.curvature(conn)
        point = (0.3, -0.7)
        for mu in range(2):
            for nu in range(2):
                for rho in range(2):
                    for sg in range(2):
                        oracle = 0.0
                        for lam in range(2):
                            oracle += (values[mu, lam, rho] * values[lam, nu, sg]
                                       - values[mu, lam, sg] * values[lam, nu, rho])
                        assert ex.evaluate(r[mu][nu][rho][sg], point) == \
                            pytest.approx(oracle, abs=1e-12)

    def test_sphere_levi_civita(self):
        sph = ex.chart("th", "ph")
        th = ex.variable(sph, "th")
        conn = ev.Connection(sph, {
            (0, 1, 1): -(ex.sin(th) * ex.cos(th)),
            (1, 0, 1): ex.cos(th) / ex.sin(th),
            (1, 1, 0): ex.cos(th) / ex.sin(th),
        })
        r = ev.curvature(conn)
        defect = ex.Binary(sph, "-", r[0][1][0][1], ex.sin(th) ** 2)
        assert ex.probably_zero(defect)

    def test_antisymmetry_in_last_pair(self, rng):
        conn = rand_connection(rng, CH2)
        r = ev.curvature(conn)
        for mu in range(2):
            for nu in range(2):
                for rho in range(2):
                    for sg in range(2):
                        total = ex.Binary(CH2, "+", r[mu][nu][rho][sg],
                                          r[mu][nu][sg][rho])
                        assert ex.probably_zero(total)


def dense_curvature(conn):
    """`curvature` with every lambda term summed, zero products included, on
    the rebuilding reference simplifier."""
    chart = conn.chart
    n = chart.dim

    def entry(mu, nu, rho, sigma):
        total = ex.Binary(chart, "-",
                          ref.partial(conn.coeff(mu, nu, sigma), rho),
                          ref.partial(conn.coeff(mu, nu, rho), sigma))
        for lam in range(n):
            quad = ex.Binary(
                chart, "-",
                ex.Binary(chart, "*", conn.coeff(mu, lam, rho), conn.coeff(lam, nu, sigma)),
                ex.Binary(chart, "*", conn.coeff(mu, lam, sigma), conn.coeff(lam, nu, rho)))
            total = ex.Binary(chart, "+", total, quad)
        return ref.simplify(total)

    return [entry(mu, nu, rho, sigma) for mu in range(n) for nu in range(n)
            for rho in range(n) for sigma in range(n)]


def signed_coeff(rng, chart):
    """A coefficient whose partials include -0.0 constants half the time."""
    e = rand_expr(rng, chart, depth=2)
    return -e if rng.random() < 0.5 else e


class TestCurvatureSparseSum:
    def check(self, conn):
        r = ev.curvature(conn)
        n = conn.chart.dim
        got = [r[mu][nu][rho][sg] for mu in range(n) for nu in range(n)
               for rho in range(n) for sg in range(n)]
        want = dense_curvature(conn)
        assert [ex.to_text(e) for e in got] == [ex.to_text(e) for e in want]
        assert [repr(e) for e in got] == [repr(e) for e in want]

    @pytest.mark.parametrize("dim", [3, 4])
    def test_sparse_connections(self, dim):
        rng = np.random.default_rng(100 + dim)
        ch = ex.chart(*[f"x{k + 1}" for k in range(dim)])
        slots = [(a, b, c) for a in range(dim) for b in range(dim) for c in range(dim)]
        for _ in range(6):
            keys = rng.choice(len(slots), size=2 * dim, replace=False)
            self.check(ev.Connection(ch, {slots[k]: signed_coeff(rng, ch) for k in keys}))

    @pytest.mark.parametrize("dim", [3, 4])
    def test_dense_connection(self, dim):
        rng = np.random.default_rng(200 + dim)
        ch = ex.chart(*[f"x{k + 1}" for k in range(dim)])
        self.check(ev.Connection(ch, {
            (a, b, c): rand_expr(rng, ch, depth=1)
            for a in range(dim) for b in range(dim) for c in range(dim)}))

    def test_products_that_cancel_exactly(self):
        ch = ex.chart("x1", "x2", "x3")
        x1, x2, _ = ex.coords(ch)
        # R[0][0][0][1] = x2 - 0 + (x1 * (x1*x2) - (x1*x2) * x1): the lambda = 0
        # term has two nonzero products that cancel exactly
        conn = ev.Connection(ch, {(0, 0, 0): x1, (0, 0, 1): x1 * x2, (1, 2, 0): x2})
        assert ex.to_text(ev.curvature(conn)[0][0][0][1]) == "x2"
        self.check(conn)

    def test_negative_zero_coefficients(self):
        ch = ex.chart("x1", "x2", "x3")
        texts = {(0, 1, 2): "-0", (1, 0, 2): "-(0) * x2", (2, 2, 1): "-x2",
                 (0, 2, 1): "-x3 * -0", (1, 1, 1): "-(x1 - x1)", (2, 0, 0): "-x1"}
        conn = ev.Connection(ch, {k: ex.parse_expr(t, ch) for k, t in texts.items()})
        assert sorted(conn.gamma) == [(2, 0, 0), (2, 2, 1)]
        self.check(conn)


class TestEvolutionaryCommutator:
    def test_symmetric_reduces_to_flat_exactly(self, rng):
        for _ in range(10):
            omega = rand_form(rng, CH2, 1)
            conn = rand_connection(rng, CH2, symmetric=True)
            comm = ev.evolutionary_commutator(omega, conn)
            flat = forms.commutator_1form(omega)
            assert comm.total_entry(0, 1) == flat.k(0, 1)

    def test_zero_connection(self, rng):
        omega = rand_form(rng, CH2, 1)
        comm = ev.evolutionary_commutator(omega, ev.Connection(CH2))
        assert comm.basis.entries == {}
        assert comm.total_entry(0, 1) == forms.commutator_1form(omega).k(0, 1)

    def test_torsion_term_value(self):
        # a1 = 1, gamma[0,1,0] = c: basis entry (0,1) = (c - 0) * 1 = c
        omega = forms.one_form(CH2, [1.0, 0.0])
        conn = ev.Connection(CH2, {(0, 1, 0): ex.const(CH2, 2.5)})
        comm = ev.evolutionary_commutator(omega, conn)
        assert ex.is_zero_const(comm.flat.k(0, 1))
        assert comm.basis.k(0, 1) == ex.const(CH2, 2.5)
        assert comm.total_entry(0, 1) == ex.const(CH2, 2.5)

    def test_basis_term_matches_hand_oracle(self, rng):
        for _ in range(5):
            omega = rand_form(rng, CH2, 1)
            conn = rand_connection(rng, CH2)
            comm = ev.evolutionary_commutator(omega, conn)
            point = tuple(rng.uniform(-1, 1, size=2))
            oracle = 0.0
            for s in range(2):
                a_s = ex.evaluate(omega.coeff((s,)), point)
                g_ji = ex.evaluate(conn.coeff(s, 1, 0), point)
                g_ij = ex.evaluate(conn.coeff(s, 0, 1), point)
                oracle += (g_ji - g_ij) * a_s
            assert ex.evaluate(comm.basis.k(0, 1), point) == \
                pytest.approx(oracle, abs=1e-12)

    def test_degree_guard(self):
        with pytest.raises(forms.DegreeError):
            ev.evolutionary_commutator(forms.scalar_form(X1), ev.Connection(CH2))


class TestRelations:
    def test_exact_relation_residual_zero(self):
        rel = ev.NonidenticalRelation(forms.scalar_form(X1 * X2),
                                      forms.one_form(CH2, [X2, X1]))
        assert rel.is_identical()
        assert ev.relation_residual(rel, (0.7, -0.3)).tolist() == [0.0, 0.0]

    def test_direct_residual_evaluation(self):
        rel = ev.NonidenticalRelation(
            forms.zero_form(CH2, 0), forms.DifferentialForm(CH2, 1, {(0,): X2}))
        assert ev.relation_residual(rel, (1.0, 2.0)).tolist() == [-2.0, 0.0]
        assert not rel.is_identical()

    def test_unclosed_right_side_never_identical(self, rng):
        # shaped like an energy balance with a non-integrable coefficient
        # pair: commutator oracle shows the right side is unclosed, so no
        # polynomial left side can close the residual
        omega = forms.one_form(CH2, [1 / X2, X1 / X2])
        assert not forms.is_closed(omega)
        for _ in range(8):
            psi = forms.scalar_form(rand_expr(rng, CH2, depth=3, trig=False))
            rel = ev.NonidenticalRelation(psi, omega)
            assert not rel.is_identical()

    def test_identity_requires_closed_omega(self, rng):
        # soundness: residual == 0 at 100 seeded points implies omega closed
        for _ in range(10):
            psi = forms.scalar_form(rand_expr(rng, CH2, depth=2))
            omega = forms.exterior_derivative(psi)
            rel = ev.NonidenticalRelation(psi, omega)
            points = np.random.default_rng(11).uniform(
                -ex.SAMPLE_BOX, ex.SAMPLE_BOX, (100, CH2.dim))
            residuals = np.array([ev.relation_residual(rel, p) for p in points])
            assert np.max(np.abs(residuals)) <= 1e-9
            assert forms.is_closed(omega)

    def test_degree_validation(self):
        with pytest.raises(forms.DegreeError):
            ev.NonidenticalRelation(forms.scalar_form(X1),
                                    forms.scalar_form(X2))


class TestCurveRestriction:
    def test_true_potential_restricts_to_zero(self):
        rel = ev.NonidenticalRelation(forms.scalar_form(X1 * X2),
                                      forms.one_form(CH2, [X2, X1]))
        curve = forms.Cell.from_text(CH2, 1, ["s1", "s1^2"])
        ts, r = ev.restrict_relation_to_curve(rel, curve, 33)
        assert np.max(np.abs(r)) <= 1e-10

    def test_unclosed_form_vanishes_on_axis(self):
        omega = forms.DifferentialForm(CH2, 1, {(0,): X2})
        rel = ev.NonidenticalRelation(forms.zero_form(CH2, 0), omega)
        axis = forms.Cell.from_text(CH2, 1, ["s1", "0"])
        ts, r = ev.restrict_relation_to_curve(rel, axis, 17)
        assert np.max(np.abs(r)) == 0.0
        assert not rel.is_identical()

    def test_strip_shaped_restriction(self):
        # straight characteristic with constant slope: psi = x1 reproduces
        # the accumulated value, so the residual vanishes along the ray
        omega = forms.one_form(CH2, [1.0, 0.0])
        rel = ev.NonidenticalRelation(forms.scalar_form(X1), omega)
        ray = forms.Cell.from_text(CH2, 1, ["2 * s1", "0"])
        ts, r = ev.restrict_relation_to_curve(rel, ray, 65)
        assert np.max(np.abs(r)) <= 1e-6

    def test_degenerate_curve_detected(self):
        rel = ev.NonidenticalRelation(forms.zero_form(CH2, 0),
                                      forms.one_form(CH2, [X2, X1]))
        stuck = forms.Cell.from_text(CH2, 1, ["1", "2"])
        with pytest.raises(ev.DegenerateCurveError):
            ev.restrict_relation_to_curve(rel, stuck, 9)

    def test_smooth_curve_exact_potential_property(self, rng):
        for _ in range(5):
            f = rand_expr(rng, CH2, depth=2)
            psi = forms.scalar_form(f)
            rel = ev.NonidenticalRelation(psi, forms.exterior_derivative(psi))
            curve = forms.Cell.from_text(CH2, 1, ["s1", "s1 + 1"])
            ts, r = ev.restrict_relation_to_curve(rel, curve, 21)
            assert np.max(np.abs(r)) <= 1e-10


class TestDegeneracy:
    def test_identity_matrix(self):
        m = [[ex.const(CH2, 1.0), ex.const(CH2, 0.0)],
             [ex.const(CH2, 0.0), ex.const(CH2, 1.0)]]
        assert ev.degeneracy_indicator(m, (0.0, 0.0)) == 1.0

    def test_rank_deficiency(self):
        m = [[X1, X2], [X1, X2]]
        assert ev.degeneracy_indicator(m, (1.3, -0.4)) == 0.0

    def test_sign_change_through_focus(self):
        # analytic fan Jacobian for quadratic focusing initial data
        tchart = ex.chart("t")
        t = ex.variable(tchart, "t")
        jac = [[ex.const(tchart, 1.0) - t]]
        before = ev.degeneracy_indicator(jac, (0.9,))
        after = ev.degeneracy_indicator(jac, (1.1,))
        assert before > 0 > after
        assert ev.degeneracy_indicator(jac, (1.0,)) == pytest.approx(0.0, abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ev.degeneracy_indicator([[X1, X2]], (0.0, 0.0))


class TestBiStructure:
    def setup_method(self):
        self.ps = ev.Pseudostructure("level-set", data="x1", dim=1)

    def test_flat_connection_has_no_deformation(self):
        omega = forms.one_form(CH2, [-X2, X1])
        event = ev.DegeneracyEvent((0.5, 0.5))
        record = ev.capture_bistructure(event, omega, None, self.ps)
        assert record.deformation_measure == 0.0
        assert record.discrete_change == pytest.approx(2.0)

    def test_exact_form_has_no_discrete_change(self):
        omega = forms.one_form(CH2, [X2, X1])
        conn = ev.Connection(CH2, {(0, 1, 0): ex.const(CH2, 1.5)})
        event = ev.DegeneracyEvent((0.25, -0.75))
        record = ev.capture_bistructure(event, omega, conn, self.ps)
        assert record.discrete_change == 0.0
        assert record.deformation_measure != 0.0

    def test_sum_invariant(self):
        omega = forms.one_form(CH2, [X2 ** 2, X1])
        conn = ev.Connection(CH2, {(0, 1, 0): X1 * X2})
        comm = ev.evolutionary_commutator(omega, conn)
        event = ev.commutator_event(comm, (0.7, 0.4))
        record = ev.capture_bistructure(event, omega, conn, self.ps)
        assert record.total_commutator == pytest.approx(
            record.discrete_change + record.deformation_measure, abs=1e-10)

    def test_closed_form_value_from_psi(self):
        omega = forms.one_form(CH2, [X2, X1])
        event = ev.DegeneracyEvent((2.0, 3.0))
        record = ev.capture_bistructure(event, omega, None, self.ps,
                                        psi=forms.scalar_form(X1 * X2))
        assert record.closed_form_value == 6.0

    def test_pseudostructure_kinds(self):
        with pytest.raises(ValueError):
            ev.Pseudostructure("wavefront")
