import math
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import solve_triangular

from projqp.art import HyperslabSystem
from projqp.box_qp import BoxQp
from projqp.convex_sets import Box
from projqp.linalg import (
    REFRESH_EVERY,
    SMALL_SIZE,
    DependentColumn,
    QrFactors,
    RankDeficient,
    _givens,
    _maybe_refresh,
    as_bounds,
    as_matrix,
    as_vector,
    norm,
    qr_append_column,
    qr_delete_column,
    qr_factorize,
    solve_upper,
    step_along,
)


def reconstruction_error(f):
    return float(np.max(np.abs(f.q_mat @ f.r_mat - f.mat))) if f.ncols else 0.0


def orthogonality_error(f):
    if f.ncols == 0:
        return 0.0
    return float(np.max(np.abs(f.q_mat.T @ f.q_mat - np.eye(f.ncols))))


class TestNorm:
    """``norm`` is sqrt(v.v) while that square is finite, and measures v
    scaled by max|v| past it."""

    def test_matches_numpy_where_the_square_is_finite(self):
        rng = np.random.default_rng(0)
        for i in range(4000):
            v = rng.normal(size=(1, 2, 3, 10, 50)[i % 5]) * 10.0 ** rng.uniform(-100.0, 100.0)
            assert norm(v) == np.linalg.norm(v)

    @pytest.mark.parametrize("seed", range(5))
    def test_scales_past_the_overflowed_square(self, seed):
        # with max|u| = 1 and a power of two scale, y = u exactly
        u = np.random.default_rng(seed).normal(size=7)
        u /= np.abs(u).max()
        scale = 2.0 ** 700
        with np.errstate(over="ignore"):
            assert not np.isfinite((u * scale).dot(u * scale))
            assert norm(u * scale) == norm(u) * scale
            assert norm(np.array([1.3e154, 1.3e154])) == pytest.approx(math.sqrt(2.0) * 1.3e154, rel=1e-15)

    @pytest.mark.parametrize("v, expected", [
        ([1.5e308, 1.5e308], math.inf),  # ||v|| is above the largest float
        ([math.inf, 1.0], math.inf),
        ([-math.inf, 1e200], math.inf),
        ([math.nan, 1.0], math.nan),
        ([1e200, math.nan], math.nan),
        ([math.inf, math.nan], math.nan),
        ([], 0.0),
    ])
    def test_non_finite(self, v, expected):
        with np.errstate(over="ignore", invalid="ignore"):
            got = norm(np.array(v))
        assert got == expected or math.isnan(got) and math.isnan(expected)


class TestStepAlong:
    """The step that moves a.x by t: the plain one while a.a is finite,
    along a / max|a| past it."""

    def test_plain_step_where_the_square_is_finite(self):
        rng = np.random.default_rng(3)
        for i in range(1000):
            a = rng.normal(size=(1, 2, 10, 50)[i % 4]) * 10.0 ** rng.uniform(-100.0, 100.0)
            x, t = rng.normal(size=a.shape), float(rng.normal())
            a_sq = float(np.vdot(a, a))
            assert np.array_equal(step_along(x, a, t, a_sq), x + (t / a_sq) * a)

    @pytest.mark.parametrize("a", [[1e200, 0.0], [1e200, -3e199, 5.0], [-1.3e154, 1.3e154]])
    def test_scaled_step_where_the_square_overflows(self, a):
        a = np.array(a)
        x = np.linspace(-1.0, 2.0, a.size)
        t = -0.75 * float(np.abs(a).max())
        a_sq = float(np.vdot(a, a))
        assert a_sq == math.inf
        y = step_along(x, a, t, a_sq)
        # y - x lies along a, and a.y exceeds a.x by t up to rounding
        assert np.all(np.isfinite(y))
        assert float(np.vdot(a, y)) - float(np.vdot(a, x)) == pytest.approx(t, rel=1e-14)
        d = (y - x) / np.abs(y - x).max()
        np.testing.assert_allclose(d, -a / np.abs(a).max(), rtol=1e-14, atol=1e-15)


class TestFactorize:
    def test_identity(self):
        f = qr_factorize(np.eye(2))
        np.testing.assert_allclose(f.q_mat, np.eye(2))
        np.testing.assert_allclose(f.r_mat, np.eye(2))

    def test_single_column_3_4(self):
        f = qr_factorize(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(f.q_mat[:, 0], [0.6, 0.8])
        np.testing.assert_allclose(f.r_mat, [[5.0]])
        assert reconstruction_error(f) <= 1e-12
        assert abs(np.linalg.norm(f.q_mat[:, 0]) - 1.0) <= 1e-14

    def test_two_columns(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        f = qr_factorize(m)
        assert f.r_mat[1, 0] == 0.0
        assert f.r_mat[0, 0] == pytest.approx(1.0)
        assert reconstruction_error(f) <= 1e-12

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            qr_factorize(np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            qr_factorize(np.ones((1, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            qr_factorize(np.array([[np.nan], [1.0]]))

    def test_nonnegative_diagonal(self):
        rng = np.random.default_rng(5)
        f = qr_factorize(rng.normal(size=(6, 4)))
        assert np.all(np.diag(f.r_mat) >= 0.0)


class TestAppend:
    def test_orthogonal_append(self):
        f = qr_factorize(np.array([[1.0], [0.0], [0.0]]))
        f2 = qr_append_column(f, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(f2.q_mat[:, 1], [0.0, 1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(f2.r_mat, np.eye(2), atol=1e-14)

    def test_oblique_append(self):
        f = qr_factorize(np.array([[1.0], [0.0]]))
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        f2 = qr_append_column(f, v)
        expected_r = np.array([[1.0, 1.0 / np.sqrt(2.0)], [0.0, 1.0 / np.sqrt(2.0)]])
        np.testing.assert_allclose(f2.r_mat, expected_r, atol=1e-12)
        assert reconstruction_error(f2) <= 1e-12

    def test_collinear_append_rejected(self):
        f = qr_factorize(np.array([[1.0], [0.0], [0.0]]))
        with pytest.raises(DependentColumn):
            qr_append_column(f, np.array([2.0, 0.0, 0.0]))

    def test_first_column_is_normalized_input(self):
        """Appending to empty factors skips the projection passes and must
        give what they give: ``v / ||v||`` and ``R = [||v||]``."""
        v = np.array([3.0, -4.0, 12.0])
        f = qr_append_column(qr_factorize(np.zeros((3, 0))), v)
        rho = float(np.sqrt(v.dot(v)))
        np.testing.assert_array_equal(f.q_mat[:, 0], v / rho)
        np.testing.assert_array_equal(f.r_mat, [[rho]])
        np.testing.assert_array_equal(f.mat, v[:, None])

    def test_existing_r_entries_unchanged(self):
        rng = np.random.default_rng(0)
        f = qr_factorize(rng.normal(size=(8, 3)))
        r_before = f.r_mat.copy()
        f2 = qr_append_column(f, rng.normal(size=8))
        np.testing.assert_allclose(f2.r_mat[:3, :3], r_before, atol=1e-10)

    def test_public_append_checks_its_column(self):
        f = qr_factorize(np.array([[1.0], [0.0], [0.0]]))
        with pytest.raises(ValueError, match="appended column has non-finite entries"):
            qr_append_column(f, np.array([0.0, np.nan, 1.0]))
        with pytest.raises(ValueError, match="column has length 2, expected 3"):
            qr_append_column(f, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(qr_append_column(f, [0, 1, 0]).mat, np.eye(3)[:, :2])


class TestDelete:
    def test_delete_only_column(self):
        f = qr_factorize(np.array([[1.0], [2.0]]))
        f2 = qr_delete_column(f, 0)
        assert f2.ncols == 0
        assert f2.q_mat.shape == (2, 0)

    def test_delete_first_of_two(self):
        f = qr_factorize(np.array([[1.0, 1.0], [0.0, 1.0]]))
        f2 = qr_delete_column(f, 0)
        np.testing.assert_allclose(f2.q_mat[:, 0], np.array([1.0, 1.0]) / np.sqrt(2.0))
        np.testing.assert_allclose(f2.r_mat, [[np.sqrt(2.0)]])

    def test_delete_middle_random(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(7, 3)))
        f = qr_factorize(q)
        f2 = qr_delete_column(f, 1)
        assert reconstruction_error(f2) <= 1e-12
        assert orthogonality_error(f2) <= 1e-12

    def test_index_out_of_range(self):
        f = qr_factorize(np.array([[1.0], [0.0]]))
        with pytest.raises(IndexError):
            qr_delete_column(f, 1)


def delete_reference(f, l):
    """The Givens-sweep delete as it was before the trailing slice and the
    compiled sweep: every column, the last included, went through this code."""
    q = f.ncols
    r1 = np.delete(f.r_mat, l, axis=1)
    q1 = f.q_mat.copy()
    for i in range(l, q - 1):
        c, s = _givens(r1[i, i], r1[i + 1, i])
        g = np.array([[c, s], [-s, c]])
        r1[i:i + 2, i:] = g @ r1[i:i + 2, i:]
        r1[i + 1, i] = 0.0
        q1[:, i:i + 2] = q1[:, i:i + 2] @ g.T
    r_new = np.triu(r1[:q - 1, :])
    q_new = q1[:, :q - 1]
    d = np.sign(np.diag(r_new))
    d[d == 0.0] = 1.0
    q_new, r_new = q_new * d, d[:, None] * r_new
    mat_new = np.delete(f.mat, l, axis=1)
    return _maybe_refresh(QrFactors(q_new, r_new, mat_new, f.updates + 1))


def same_factors(a, b) -> bool:
    return a.updates == b.updates and all(
        x.shape == y.shape and x.flags.c_contiguous and x.tobytes() == y.tobytes()
        for x, y in ((a.q_mat, b.q_mat), (a.r_mat, b.r_mat), (a.mat, b.mat))
    )


def relative_gap(x, y) -> float:
    return float(np.max(np.abs(x - y))) / max(float(np.max(np.abs(y))), 1.0) if y.size else 0.0


def check_delete(f, l):
    """Delete column l of f and check the result against the reference sweep.

    A trailing delete and any delete at q <= 2 must give the reference's
    bytes.  An interior delete at q >= 3 runs scipy's compiled sweep, which
    rounds differently: there the factors must agree with the reference to
    round-off and be valid factors of the exact shadow in this module's
    form, and whatever the sweep does not touch must keep its bytes.
    """
    q = f.ncols
    before = [a.tobytes() for a in (f.q_mat, f.r_mat, f.mat)]
    got = qr_delete_column(f, l)
    ref = delete_reference(f, l)
    assert [a.tobytes() for a in (f.q_mat, f.r_mat, f.mat)] == before, "input changed"
    if l == q - 1 or q <= 2 or ref.updates == 0:  # a refresh refactorizes the shadow
        assert same_factors(got, ref), (q, l)
        return got
    assert got.updates == f.updates + 1
    assert got.q_mat.shape == ref.q_mat.shape and got.r_mat.shape == ref.r_mat.shape
    assert all(a.flags.c_contiguous for a in (got.q_mat, got.r_mat, got.mat))
    assert got.mat.tobytes() == ref.mat.tobytes()
    assert relative_gap(got.q_mat, ref.q_mat) <= 1e-14, (q, l)
    assert relative_gap(got.r_mat, ref.r_mat) <= 1e-14, (q, l)
    assert orthogonality_error(got) <= 1e-13
    assert reconstruction_error(got) <= 1e-13 * (1.0 + float(np.max(np.abs(got.mat))))
    below = got.r_mat[np.tril_indices(q - 1, -1)]
    assert np.all(below == 0.0) and not np.signbit(below).any()
    assert np.all(np.diag(got.r_mat) >= 0.0)
    assert got.q_mat[:, :l].tobytes() == f.q_mat[:, :l].tobytes()
    assert got.r_mat[:l, :l].tobytes() == f.r_mat[:l, :l].tobytes()
    return got


class TestDeleteMatchesTheSweep:
    """Trailing deletes and deletes at q <= 2 give the reference sweep's
    factors byte for byte; interior deletes at q >= 3 agree with them to
    round-off (see ``check_delete``)."""

    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_every_column_of_factored_matrices(self, n):
        rng = np.random.default_rng(800 + n)
        for q in range(1, min(n, 12) + 1):
            f = qr_factorize(rng.normal(size=(n, q)))
            for l in range(q):
                check_delete(f, l)

    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_every_column_of_updated_factors(self, n):
        # factors that appends and deletes built, on both sides of a refresh
        rng = np.random.default_rng(810 + n)
        f = qr_factorize(np.zeros((n, 0)))
        for step in range(3 * REFRESH_EVERY):
            if f.ncols < min(n, 12) and (f.ncols < 2 or rng.uniform() < 0.6):
                f = qr_append_column(f, rng.normal(size=n))
                continue
            for l in range(f.ncols):
                check_delete(f, l)
            f = qr_delete_column(f, int(rng.integers(f.ncols)))

    @pytest.mark.parametrize("q", [3, 5, 12])
    def test_every_column_of_square_factors(self, q):
        # at n == q scipy takes Q as the full factor and returns q rows of R
        rng = np.random.default_rng(830 + q)
        f = qr_factorize(rng.normal(size=(q, q)))
        for l in range(q):
            got = check_delete(f, l)
            assert got.q_mat.shape == (q, q - 1) and got.r_mat.shape == (q - 1, q - 1)

    def test_nonfinite_factor_rejected(self):
        rng = np.random.default_rng(840)
        f = qr_factorize(rng.normal(size=(6, 4)))
        for bad in (np.nan, np.inf):
            q_bad = f.q_mat.copy()
            q_bad[2, 3] = bad
            r_bad = f.r_mat.copy()
            r_bad[1, 2] = bad
            for g in (QrFactors(q_bad, f.r_mat, f.mat, 0), QrFactors(f.q_mat, r_bad, f.mat, 0)):
                for l in range(3):
                    with pytest.raises(ValueError):
                        qr_delete_column(g, l)

    @staticmethod
    def scipy_delete(f, l):
        """An interior delete at q >= 3 through ``scipy.linalg.qr_delete``'s
        public wrapper, with the sign fix ``qr_delete_column`` applies."""
        q = f.ncols
        q_full, r_full = scipy.linalg.qr_delete(f.q_mat, f.r_mat, l, 1, "col")
        sign = np.copysign(1.0, r_full.diagonal()[:q - 1])
        sign[:l] = 1.0
        r_new = np.multiply(r_full[:q - 1, :q - 1], sign[:, None], order="C")
        r_new[l:] += 0.0
        return np.multiply(q_full[:, :q - 1], sign, order="C"), r_new

    @pytest.mark.parametrize("scale", ["unit", "q-overflows", "r-overflows"])
    @pytest.mark.parametrize("n", [3, 5, 50])
    def test_compiled_sweep_is_scipys_to_the_bit(self, n, scale):
        # the sum of squares of a 1e200-scaled factor overflows: the
        # entrywise test must then pass the finite factor
        rng = np.random.default_rng(850 + n)
        for q in range(3, min(n, 12) + 1):
            f = qr_factorize(rng.normal(size=(n, q)))
            if scale == "q-overflows":
                f = QrFactors(f.q_mat * 1e200, f.r_mat, f.mat, 0)
            elif scale == "r-overflows":
                f = QrFactors(f.q_mat, f.r_mat * 1e200, f.mat * 1e200, 0)
            for l in range(q - 1):
                got = qr_delete_column(f, l)
                q_ref, r_ref = self.scipy_delete(f, l)
                assert got.q_mat.tobytes() == q_ref.tobytes(), (q, l)
                assert got.r_mat.tobytes() == r_ref.tobytes(), (q, l)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_anywhere_rejected(self, bad, scale):
        # one sum of squares per factor decides, so every entry is tried,
        # on factors whose sum of squares is finite and on ones where it
        # overflows
        rng = np.random.default_rng(860)
        f = qr_factorize(rng.normal(size=(6, 4)))
        for which in ("q", "r"):
            base = (f.q_mat if which == "q" else f.r_mat) * scale
            for index in np.ndindex(base.shape):
                m = base.copy()
                m[index] = bad
                g = QrFactors(m, f.r_mat, f.mat, 0) if which == "q" else QrFactors(f.q_mat, m, f.mat, 0)
                for l in range(3):
                    with pytest.raises(ValueError, match="non-finite"):
                        qr_delete_column(g, l)

    def test_negative_diagonal_is_canonicalized(self):
        # a diagonal the sweep does not touch (below l) keeps its sign
        # through the sweep; the result still has a nonnegative diagonal
        rng = np.random.default_rng(820)
        for n, q in ((6, 4), (50, 12)):
            f = qr_factorize(rng.normal(size=(n, q)))
            flip = np.where(np.arange(q) % 2 == 0, -1.0, 1.0)
            g = QrFactors(f.q_mat * flip, np.triu(flip[:, None] * f.r_mat), f.mat.copy(), 5)
            for l in range(q):
                got = qr_delete_column(g, l)
                ref = delete_reference(g, l)
                if l == q - 1 or q <= 2:
                    assert same_factors(got, ref)
                assert np.all(np.diag(got.r_mat) >= 0.0)
                assert np.all(np.tril(got.r_mat, -1) == 0.0)
                assert got.mat.tobytes() == ref.mat.tobytes()
                assert relative_gap(got.q_mat, ref.q_mat) <= 1e-14
                assert relative_gap(got.r_mat, ref.r_mat) <= 1e-14
                assert got.updates == 6


class TestUpdateSequences:
    def test_append_then_delete_roundtrip(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(6, 3))
        f = qr_factorize(m)
        v = rng.normal(size=6)
        f2 = qr_delete_column(qr_append_column(f, v), 3)
        # factors may differ by signs; compare the products
        np.testing.assert_allclose(f2.q_mat @ f2.r_mat, f.q_mat @ f.r_mat, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_walk_against_shadow(self, seed):
        """Long random append/delete sequences stay within the drift bounds.

        The shadow matrix maintained alongside the factors is the oracle.
        """
        rng = np.random.default_rng(seed)
        n = 9
        f = qr_factorize(np.zeros((n, 0)))
        cols = []
        for _ in range(220):
            if cols and rng.uniform() < 0.45:
                k = int(rng.integers(len(cols)))
                cols.pop(k)
                f = qr_delete_column(f, k)
            elif len(cols) < n:
                v = rng.normal(size=n)
                cols.append(v)
                f = qr_append_column(f, v)
            shadow = np.column_stack(cols) if cols else np.zeros((n, 0))
            np.testing.assert_allclose(f.mat, shadow, atol=0.0)
            if cols:
                scale = 1.0 + float(np.max(np.abs(shadow)))
                assert orthogonality_error(f) <= 1e-10
                assert float(np.max(np.abs(f.q_mat @ f.r_mat - shadow))) <= 1e-10 * scale

    def test_periodic_refresh_resets_counter(self):
        rng = np.random.default_rng(3)
        f = qr_factorize(rng.normal(size=(8, 2)))
        for _ in range(40):
            f = qr_append_column(f, rng.normal(size=8))
            f = qr_delete_column(f, int(rng.integers(f.ncols)))
        assert f.updates < 64
        assert reconstruction_error(f) <= 1e-10


class TestValidation:
    @pytest.mark.parametrize("size", [1, 2, SMALL_SIZE, SMALL_SIZE + 1, 50])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected_at_every_size(self, size, bad):
        v = np.ones(size)
        v[size // 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            as_vector(v)
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(v.reshape(1, size))
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(v.reshape(size, 1))

    @pytest.mark.parametrize("size", [0, 1, SMALL_SIZE, SMALL_SIZE + 1])
    def test_finite_accepted_at_every_size(self, size):
        v = np.linspace(-1e300, 1e300, size)
        assert as_vector(v) is v
        assert as_matrix(v.reshape(1, size)).shape == (1, size)

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_vector(np.ones((2, 2)))
        with pytest.raises(ValueError, match="two-dimensional"):
            as_matrix(np.ones(3))

    @pytest.mark.parametrize("bad", [{}, {"x": 1.0}, [{}], object()])
    def test_non_numeric_named(self, bad):
        with pytest.raises(ValueError, match="^witness: float"):
            as_vector(bad, "witness")


def system_text(lower, upper) -> str:
    return "2 2\n1 0\n0 1\n" + " ".join(map(str, lower)) + "\n" + " ".join(map(str, upper)) + "\n"


class TestBoundsRule:
    """Boxes, slab systems (built or read from text) and the box QP check
    their bounds with ``as_bounds``: each rule gives each its own message."""

    MAKERS = {
        "box": Box,
        "hyperslab system": lambda lo, up: HyperslabSystem(np.eye(2), lo, up),
        "text system": lambda lo, up: HyperslabSystem.from_text(system_text(lo, up)),
        "box QP": lambda lo, up: BoxQp(np.zeros(2), lo, up, np.ones(2), 1.0),
    }
    # (lower, upper, the message after "<what> ")
    FAULTS = {
        "nan": ([0.0, np.nan], [1.0, 1.0], "bounds must not be NaN"),
        "lower-above-upper": ([0.0, 2.0], [1.0, 1.0], "requires lower <= upper"),
        "lower-inf": ([0.0, np.inf], [1.0, np.inf], "requires lower < inf and upper > -inf"),
        "upper-minus-inf": ([-np.inf, 0.0], [-np.inf, 1.0], "requires lower < inf and upper > -inf"),
        "wrong-shape": ([0.0, 0.0], [1.0, 1.0, 1.0], "bounds must have shape (2,), got (2,) and (3,)"),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("maker", sorted(MAKERS))
    def test_each_rule_has_its_message(self, maker, fault):
        lower, upper, rule = self.FAULTS[fault]
        if maker == "text system" and fault == "wrong-shape":
            message = "the upper-bound line has 3 entries, expected 2"
        else:
            message = f"{maker.replace('text system', 'hyperslab system')} {rule}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.MAKERS[maker](np.array(lower), np.array(upper))

    @pytest.mark.parametrize("maker", sorted(MAKERS))
    def test_unbounded_sides_accepted(self, maker):
        self.MAKERS[maker](np.array([-np.inf, 0.0]), np.array([0.0, np.inf]))

    def test_returns_float_arrays(self):
        lo, up = as_bounds([0, -1], (1, np.inf), (2,), "box")
        assert lo.dtype == up.dtype == float
        assert lo.tolist() == [0.0, -1.0] and up.tolist() == [1.0, np.inf]


class TestSolveUpper:
    """Above two unknowns ``solve_upper`` calls LAPACK directly, as
    ``solve_triangular`` does, and below it unrolls on Python floats the
    operations LAPACK takes on a C-ordered R: the results and the errors
    must be its own."""

    @staticmethod
    def system(rng, q):
        r = np.triu(rng.normal(size=(q, q)))
        r[np.diag_indices(q)] = rng.uniform(0.1, 2.0, q)
        return r, rng.normal(size=q)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_identical_to_solve_triangular(self, order):
        rng = np.random.default_rng(600)
        # on Fortran-ordered R, LAPACK forms w0 - r01 x1 at q = 2 with one
        # rounding (a fused multiply-add); the engine's factors are C-ordered
        for q in range(1, 41) if order == "C" else [1, *range(3, 41)]:
            for _ in range(5):
                r, w = self.system(rng, q)
                r = np.asarray(r, order=order)
                got = solve_upper(r, w)
                assert got.tobytes() == solve_triangular(r, w, lower=False).tobytes()

    def test_factors_from_updates(self):
        rng = np.random.default_rng(601)
        f = qr_factorize(rng.normal(size=(50, 20)))
        for _ in range(20):
            f = qr_append_column(f, rng.normal(size=50))
            f = qr_delete_column(f, int(rng.integers(f.ncols)))
            w = rng.normal(size=f.ncols)
            assert solve_upper(f.r_mat, w).tobytes() == solve_triangular(f.r_mat, w, lower=False).tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("where", ["r", "w"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_as_solve_triangular(self, order, where, bad):
        r, w = self.system(np.random.default_rng(602), 5)
        if where == "r":
            r[1, 3] = bad
        else:
            w[2] = bad
        r = np.asarray(r, order=order)
        with pytest.raises(ValueError) as ours:
            solve_upper(r, w)
        with pytest.raises(ValueError) as theirs:
            solve_triangular(r, w, lower=False)
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("zero", [0, 2, 4])
    def test_zero_diagonal_raises_as_solve_triangular(self, order, zero):
        r, w = self.system(np.random.default_rng(603), 5)
        r[zero, zero] = 0.0
        r = np.asarray(r, order=order)
        with pytest.raises(np.linalg.LinAlgError) as ours:
            solve_upper(r, w)
        with pytest.raises(np.linalg.LinAlgError) as theirs:
            solve_triangular(r, w, lower=False)
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("q, zeros", [(1, [0]), (2, [0]), (2, [1]), (2, [0, 1])])
    def test_unrolled_zero_diagonal_raises_as_solve_triangular(self, q, zeros):
        r, w = self.system(np.random.default_rng(604), q)
        r[zeros, zeros] = 0.0
        with pytest.raises(np.linalg.LinAlgError) as ours:
            solve_upper(r, w)
        with pytest.raises(np.linalg.LinAlgError) as theirs:
            solve_triangular(r, w, lower=False)
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("bad", ["nan-in-r", "inf-in-w", "nan-in-w-zero-diagonal"])
    def test_unrolled_non_finite_raises_as_solve_triangular(self, q, bad):
        rng = np.random.default_rng(605)
        cases = []
        if bad == "nan-in-r":  # every entry in turn, the lower triangle's too
            for i, j in np.ndindex(q, q):
                r, w = self.system(rng, q)
                r[i, j] = np.nan
                cases.append((r, w))
        elif bad == "inf-in-w":
            for i in range(q):
                for inf in (np.inf, -np.inf):
                    r, w = self.system(rng, q)
                    w[i] = inf
                    cases.append((r, w))
        else:  # the operands are checked before the diagonal
            r, w = self.system(rng, q)
            r[0, 0] = 0.0
            w[q - 1] = np.nan
            cases.append((r, w))
        for r, w in cases:
            with pytest.raises(ValueError) as ours:
                solve_upper(r, w)
            with pytest.raises(ValueError) as theirs:
                solve_triangular(r, w, lower=False)
            assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_overflowing_sum_of_squares_is_solved(self, order):
        # finite operands whose sum of squares overflows pass the one-sum
        # check's entrywise fallback and give solve_triangular's bytes
        rng = np.random.default_rng(606)
        for q in (3, 5, 12):
            r, w = self.system(rng, q)
            for r_s, w_s in ((r * 1e200, w), (r, w * 1e200), (r * 1e200, w * 1e200)):
                r_s = np.asarray(r_s, order=order)
                got = solve_upper(r_s, w_s)
                assert got.tobytes() == solve_triangular(r_s, w_s, lower=False).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_anywhere_raises(self, bad, scale):
        rng = np.random.default_rng(607)
        r, w = self.system(rng, 4)
        r, w = r * scale, w * scale
        cases = []
        for index in np.ndindex(r.shape):  # the lower triangle too
            r_bad = r.copy()
            r_bad[index] = bad
            cases.append((r_bad, w))
        for i in range(w.size):
            w_bad = w.copy()
            w_bad[i] = bad
            cases.append((r, w_bad))
        for r_bad, w_bad in cases:
            with pytest.raises(ValueError) as ours:
                solve_upper(r_bad, w_bad)
            with pytest.raises(ValueError) as theirs:
                solve_triangular(r_bad, w_bad, lower=False)
            assert str(ours.value) == str(theirs.value)
