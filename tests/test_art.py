import math

import numpy as np
import pytest

from projqp import art
from projqp.activeset_qp import verify_certificate
from projqp.art import (
    HyperslabSystem,
    art3_solve,
    art3_update,
    extended_art_solve,
    extrapolate_plus,
    load_system,
    tilde_bounds,
)
from projqp.bench import generate_problem, hyperslab_system_from_sets
from projqp.convex_sets import Hyperslab, problem_from_dict


def slab(a, lo, up):
    return HyperslabSystem(np.atleast_2d(np.asarray(a, float)), np.array([lo]), np.array([up]))


def generated_system(n, slabs, seed):
    sets, x0, extras = problem_from_dict(generate_problem("hyperslabs-with-interior", n, slabs, seed))
    return hyperslab_system_from_sets(sets), x0, np.asarray(extras["witness"])


# The scalar loops that the screened ``contains`` and the masked
# ``_tight_slabs`` replace, kept as oracles.

def contains_loop(system, x):
    for j in range(system.a_mat.shape[0]):
        s = float(system.a_mat[j] @ x)
        if s < system.lower[j] or s > system.upper[j]:
            return False
    return True


def tight_slabs_loop(system, x, tol=1e-9):
    ax = system.a_mat @ x
    out = []
    for j in range(system.m):
        scale = tol * (1.0 + abs(ax[j]))
        if (math.isfinite(system.lower[j]) and abs(ax[j] - system.lower[j]) <= scale) or (
            math.isfinite(system.upper[j]) and abs(ax[j] - system.upper[j]) <= scale
        ):
            out.append(j)
    return tuple(out)


def art3_loop(x0, system, max_iters=100_000):
    """``art3_solve``'s sweep with an ``art3_update`` call on every visit."""
    x = np.array(x0, dtype=float)
    clean = i = j = 0
    status = "iteration_limit"
    while i < max_iters:
        x_new = art3_update(x, system.a_mat[j], system.lower[j], system.upper[j])
        changed = not np.array_equal(x_new, x)
        x = x_new
        clean = 0 if changed else clean + 1
        i += 1
        j = (j + 1) % system.m
        if clean >= system.m:
            status = "solved"
            break
    return x, status, {"iterations": i}, contains_loop(system, x)


def same_as_loop(rep, loop):
    x, status, counts, membership = loop
    assert rep.x.tobytes() == x.tobytes()
    assert (rep.status, rep.counts, rep.extras["membership"]) == (status, counts, membership)


def ulps(v, k):
    """v moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        v = np.nextafter(v, math.copysign(math.inf, k))
    return v


def edge_cases(rng, n, m):
    """(system, x) pairs that probe the screen's band: random points, points
    exactly on a face or 1-4 ulps either side of it, infinite bounds."""
    a = rng.normal(size=(m, n)) * rng.choice([1e-3, 1.0, 1e3], size=(m, 1))
    x = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e4])
    s = np.array([float(a[j] @ x) for j in range(m)])
    width = np.abs(s) * rng.uniform(1e-3, 1.0, size=m) + 1e-300
    bounds = [(s - width * rng.uniform(-0.5, 1.5, size=m), s + width * rng.uniform(-0.5, 1.5, size=m))]
    for k in range(-4, 5):
        face = np.array([ulps(v, k) for v in s])
        bounds += [(face, np.maximum(face, s + width)), (np.minimum(face, s - width), face),
                   (face, np.full(m, np.inf)), (np.full(m, -np.inf), face)]
    # one row near its face, the others well inside or unbounded
    lo, up = s - width, np.where(rng.random(m) < 0.3, np.inf, s + width)
    j = int(rng.integers(m))
    lo[j] = ulps(s[j], int(rng.integers(-4, 5)))
    bounds.append((lo, np.maximum(up, lo)))
    return [(HyperslabSystem(a, np.minimum(lo, up), up), x) for lo, up in bounds]


class TestArt3Update:
    def test_inside_unchanged(self):
        x = np.array([0.5, 3.0])
        np.testing.assert_array_equal(art3_update(x, np.array([1.0, 0.0]), 0.0, 1.0), x)

    def test_reflection_identity_upper(self):
        x = np.array([1.2, 0.0])
        a = np.array([1.0, 0.0])
        x2 = art3_update(x, a, 0.0, 1.0)
        assert float(a @ x2) == pytest.approx(0.8, abs=1e-12)  # 2U - a^T x

    def test_reflection_identity_lower(self):
        x = np.array([-0.3, 0.0])
        a = np.array([1.0, 0.0])
        x2 = art3_update(x, a, 0.0, 1.0)
        assert float(a @ x2) == pytest.approx(0.3, abs=1e-12)  # 2L - a^T x

    def test_midpoint_far_away(self):
        x = np.array([2.0, 0.0])
        x2 = art3_update(x, np.array([1.0, 0.0]), 0.0, 1.0)
        assert x2[0] == pytest.approx(0.5, abs=1e-12)

    def test_never_maps_inside_out(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=3)
            lo, up = sorted(rng.normal(size=2))
            x = rng.normal(size=3)
            s = float(a @ x)
            if lo <= s <= up:
                np.testing.assert_array_equal(art3_update(x, a, lo, up), x)

    def test_infinite_width_projects(self):
        x = np.array([-2.0, 1.0])
        a = np.array([1.0, 0.0])
        x2 = art3_update(x, a, 0.0, np.inf)
        assert float(a @ x2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_width_projects(self):
        x = np.array([3.0, 1.0])
        a = np.array([1.0, 0.0])
        x2 = art3_update(x, a, 1.0, 1.0)
        assert float(a @ x2) == pytest.approx(1.0, abs=1e-12)


class TestArt3Solve:
    def test_single_slab_two_updates(self):
        system = slab([1.0, 0.0], 0.0, 1.0)
        rep = art3_solve(np.array([1.4, 2.0]), system)
        assert rep.status == "solved"
        assert rep.counts["iterations"] <= 3
        assert system.contains(rep.x)

    def test_random_interior_system(self):
        doc = generate_problem("hyperslabs-with-interior", 3, 5, 17)
        sets, x0, extras = problem_from_dict(doc)
        system = hyperslab_system_from_sets(sets)
        rep = art3_solve(x0, system)
        assert rep.status == "solved"
        assert system.contains(rep.x)  # exact membership

    def test_start_inside_stops_after_clean_pass(self):
        doc = generate_problem("hyperslabs-with-interior", 3, 5, 18)
        sets, _, extras = problem_from_dict(doc)
        system = hyperslab_system_from_sets(sets)
        w = np.asarray(extras["witness"])
        rep = art3_solve(w, system)
        assert rep.status == "solved"
        assert rep.counts["iterations"] == system.m
        np.testing.assert_array_equal(rep.x, w)


class TestExtrapolatePlus:
    def test_half_step_to_far_face(self):
        system = slab([0.0, 1.0], 0.0, 1.0)
        x_plus = extrapolate_plus(np.array([0.0, -1.0]), np.array([0.0, 0.0]), system, (0,))
        np.testing.assert_allclose(x_plus, [0.0, 0.5], atol=1e-14)

    def test_parallel_direction_full_reflection(self):
        system = slab([0.0, 1.0], 0.0, 1.0)
        x_plus = extrapolate_plus(np.array([-1.0, 0.0]), np.array([0.0, 0.0]), system, (0,))
        np.testing.assert_allclose(x_plus, [1.0, 0.0], atol=1e-14)

    def test_zero_direction(self):
        system = slab([0.0, 1.0], 0.0, 1.0)
        x = np.array([0.3, 0.4])
        np.testing.assert_allclose(extrapolate_plus(x, x, system, (0,)), x)


class TestClassifyCase:
    """``art._case(a^T x_plus, a^T x_times, L, U)`` on the slab 0 <= a^T x <= 1."""

    def test_case1(self):
        assert art._case(0.5, 0.0, 0.0, 1.0) == 1

    def test_case2(self):
        # x_plus in the band above U, x_times outside the slab
        assert art._case(1.2, 1.1, 0.0, 1.0) == 2

    def test_case3(self):
        assert art._case(1.2, 0.9, 0.0, 1.0) == 3

    def test_case4(self):
        assert art._case(1.8, 1.1, 0.0, 1.0) == 4

    def test_case5(self):
        assert art._case(1.8, 0.5, 0.0, 1.0) == 5

    def test_tilde_bounds(self):
        assert tilde_bounds(0.0, 1.0) == (-0.5, 1.5)
        lo, up = tilde_bounds(0.0, np.inf)
        assert lo == -np.inf and up == np.inf


class TestExtendedArt:
    def test_two_orthogonal_slabs(self):
        system = HyperslabSystem(np.eye(2), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        rep = extended_art_solve(np.array([7.0, -5.0]), system, witness=np.array([0.5, 0.5]))
        assert rep.status == "solved"
        assert system.contains(rep.x)
        assert rep.extras["fejer_max_increase"] <= 1e-9

    def test_start_inside(self):
        system = HyperslabSystem(np.eye(2), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        x0 = np.array([0.25, 0.75])
        rep = extended_art_solve(x0, system)
        assert rep.status == "solved"
        assert rep.counts["iterations"] == 0
        np.testing.assert_array_equal(rep.x, x0)

    def test_never_p_times_in_band_cases(self):
        rng = np.random.default_rng(9)
        for k in range(10):
            doc = generate_problem("hyperslabs-with-interior", int(rng.integers(2, 6)),
                                   int(rng.integers(2, 9)), 1000 + k)
            sets, x0, extras = problem_from_dict(doc)
            system = hyperslab_system_from_sets(sets)
            rep = extended_art_solve(x0, system, witness=np.asarray(extras["witness"]))
            assert rep.status == "solved"
            assert rep.extras["forbidden_p_times"] == 0

    @pytest.mark.parametrize("witness", [[0.5], [0.5, 0.5, 0.5]])
    def test_witness_dimension_checked(self, witness):
        system = HyperslabSystem(np.eye(2), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match=f"witness has dimension {len(witness)}, but the system has dimension 2"):
            extended_art_solve(np.array([7.0, -5.0]), system, witness=witness)

    def test_infinite_width_rows(self):
        system = HyperslabSystem(
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.array([0.0, -np.inf]),
            np.array([np.inf, 1.0]),
        )
        rep = extended_art_solve(np.array([-3.0, 4.0]), system)
        assert rep.status == "solved"
        assert system.contains(rep.x)

    @pytest.mark.parametrize("k", range(6))
    def test_disjoint_slabs_end_infeasible_after_the_last_restart(self, k):
        # a slab parallel to slab 0, beyond its upper face, empties the system
        n, m = [(2, 8), (3, 6), (10, 40)][k % 3]
        system, x0, witness = generated_system(n, m, 1000 + k)
        a0, lo0, up0 = system.a_mat[0], system.lower[0], system.upper[0]
        w = up0 - lo0
        disjoint = HyperslabSystem(np.vstack([system.a_mat, a0]), np.append(system.lower, up0 + 0.5 * w),
                                   np.append(system.upper, up0 + 2.0 * w))
        rep = extended_art_solve(x0, disjoint, witness=witness)
        assert rep.status == "infeasible"
        assert verify_certificate(rep.certificate, *rep.cert_system)
        # every P_plus restarts, and a P_times only once its step succeeds:
        # the step that proved infeasibility adds no restart
        events = [e.split(":")[0] for row in rep.rows for e in row.events]
        restarts = rep.counts["p_plus"] + events.count("times") + events.count("times-reanchor")
        assert rep.extras["fejer_events"] == restarts


class TestTextFormat:
    def test_roundtrip(self, tmp_path):
        system = HyperslabSystem(
            np.array([[1.0, 2.0], [3.0, -4.0]]),
            np.array([-1.0, -np.inf]),
            np.array([1.0, 2.5]),
        )
        path = tmp_path / "system.txt"
        path.write_text(system.to_text())
        loaded = load_system(path)
        np.testing.assert_array_equal(loaded.a_mat, system.a_mat)
        np.testing.assert_array_equal(loaded.lower, system.lower)
        np.testing.assert_array_equal(loaded.upper, system.upper)
        text = path.read_text()
        assert text.splitlines()[0] == "2 2"
        assert "-inf" in text

    def test_bad_line_count(self):
        with pytest.raises(ValueError):
            HyperslabSystem.from_text("1 2\n1.0 2.0\n")

    @pytest.mark.parametrize("x", [np.zeros(3), [0.0, 0.0, 0.0]])
    def test_contains_names_both_dimensions(self, x):
        system = HyperslabSystem(np.eye(2), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="^x has dimension 3, but the set has dimension 2$"):
            system.contains(x)

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperslabSystem(np.array([[0.0, 0.0]]), np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            HyperslabSystem(np.array([[1.0, 0.0]]), np.array([2.0]), np.array([1.0]))

    @pytest.mark.parametrize("text,message", [
        ("", "empty"),
        ("# only a comment\n\n", "empty"),
        ("2\n1.0\n0.0\n1.0\n", "row and column counts"),
        ("2 x\n1.0 0.0\n0.0 1.0\n0 0\n1 1\n", "row and column counts"),
        ("0 2\n\n\n", "row and column counts"),
        ("2 3\n1.0 0.0\n0.0 1.0\n0.0 0.0\n1.0 1.0\n", "row 1 has 2 entries, expected 3"),
        ("2 2\n1.0 0.0\n0.0 1.0 5.0\n0.0 0.0\n1.0 1.0\n", "row 2 has 3 entries, expected 2"),
        ("2 2\n1.0 0.0\n0.0 1.0\n0.0\n1.0 1.0\n", "lower-bound line has 1 entries, expected 2"),
        ("2 2\n1.0 0.0\n0.0 1.0\n0.0 0.0\n1.0 1.0 2.0\n", "upper-bound line has 3 entries, expected 2"),
        ("1 2\n1.0 abc\n0.0\n1.0\n", "could not convert"),
        # a row whose bounds leave it empty
        ("2 2\n1.0 0.0\n0.0 1.0\ninf 0.0\ninf 1.0\n", r"^hyperslab system requires lower < inf and upper > -inf$"),
        ("2 2\n1.0 0.0\n0.0 1.0\n0.0 -inf\n1.0 -inf\n", r"^hyperslab system requires lower < inf and upper > -inf$"),
    ])
    def test_malformed_text_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            HyperslabSystem.from_text(text)


class TestScreenedMembership:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 8), (10, 40), (50, 200)])
    def test_contains_and_tight_slabs_match_the_loops(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        for _ in range(20):
            for system, x in edge_cases(rng, n, m):
                assert system.contains(x) == contains_loop(system, x)
                assert art._tight_slabs(system, x) == tight_slabs_loop(system, x)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 8), (10, 40), (50, 200)])
    def test_each_radius_holds_to_its_edge(self, n, m):
        """A point D < rho_j from the screened point, moved straight at row
        j's faces, still passes row j's exact one-dot test."""
        rng = np.random.default_rng(n * 1000 + m + 1)
        proved = 0
        for _ in range(20):
            for system, x in edge_cases(rng, n, m):
                rho = system._screen.radii(x)
                big = float(np.abs(x).max())
                for j in np.flatnonzero(rho > 0.0):
                    a_j = system.a_mat[j]
                    for sign in (-1.0, 1.0):
                        y = x + (sign * min(rho[j], big) * (1.0 - 1e-12) / np.linalg.norm(a_j)) * a_j
                        if system._screen.distance(y, x, big) < rho[j]:
                            assert system.lower[j] <= float(a_j @ y) <= system.upper[j]
                            proved += 1
        assert proved > 4 * m

    def test_tight_slabs_at_the_tolerance_edge(self, monkeypatch):
        # powers of two make |ax - bound| == tol (1 + |ax|) exact at k = 0
        tol = 2.0**-30
        monkeypatch.setattr(art, "TIGHT_TOL", tol)
        x = np.array([1.0, 4.0, 0.5, -2.0])
        ax = x.copy()
        scale = tol * (1.0 + np.abs(ax))
        for k in (-1, 0, 1):
            lo = np.array([ulps(v, k) for v in ax - scale])
            up = np.array([ulps(v, k) for v in ax + scale])
            for system, tight in ((HyperslabSystem(np.eye(4), lo, np.full(4, np.inf)), k >= 0),
                                  (HyperslabSystem(np.eye(4), np.full(4, -np.inf), up), k <= 0)):
                assert tight_slabs_loop(system, x, tol) == ((0, 1, 2, 3) if tight else ())
                assert art._tight_slabs(system, x) == tight_slabs_loop(system, x, tol)

    def test_overflowing_slack_rechecks_every_row(self):
        class RowSpy(np.ndarray):
            def __getitem__(self, j):
                rows.append(j)
                return np.ndarray.__getitem__(self, j)

        rng = np.random.default_rng(5)
        a = rng.normal(size=(12, 4))
        for scale in (1e307, 1e308, 1.7e308):
            x = rng.choice([-1.0, 1.0], size=4) * scale
            with np.errstate(over="ignore", invalid="ignore"):
                s = np.array([float(a[j] @ x) for j in range(12)])
                half = 0.5 * np.abs(s)
                fin = np.isfinite(s)  # every row well inside
                system = HyperslabSystem(a, np.where(fin, s - half, -np.inf), np.where(fin, s + half, np.inf))
                assert system._screen.radii(x) is None
                expected = contains_loop(system, x)
                rows = []
                object.__setattr__(system, "a_mat", system.a_mat.view(RowSpy))
                assert system.contains(x) == expected
            assert rows == list(range(12))

    @pytest.mark.parametrize("bad", [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [-np.inf, 0.5]])
    def test_non_finite_point_is_outside(self, bad):
        system = HyperslabSystem(np.eye(2), np.array([-np.inf, 0.0]), np.array([np.inf, 1.0]))
        assert system.contains([0.5, 0.5])
        assert not system.contains(bad)

    @pytest.mark.parametrize("n,slabs,seeds", [(2, 8, range(40)), (10, 40, range(6)), (50, 200, range(2))])
    def test_extended_art_matches_the_loops(self, monkeypatch, n, slabs, seeds):
        for seed in seeds:
            system, x0, witness = generated_system(n, slabs, 500 + seed)
            fast = extended_art_solve(x0, system, witness=witness)
            with monkeypatch.context() as mp:
                mp.setattr(art._RowScreen, "radii", lambda self, x: None)  # no row is cleared
                mp.setattr(HyperslabSystem, "contains", contains_loop)
                mp.setattr(art, "_tight_slabs", tight_slabs_loop)
                slow = extended_art_solve(x0, system, witness=witness)
            assert fast.status == slow.status == "solved"
            assert fast.x.tobytes() == slow.x.tobytes()
            assert fast.counts == slow.counts
            assert fast.rows == slow.rows
            for key in ("membership", "fejer_events", "fejer_max_increase", "forbidden_p_times"):
                assert fast.extras[key] == slow.extras[key]
            ft, st = fast.extras["triple"], slow.extras["triple"]
            assert ft.active_slabs == st.active_slabs
            for f in ("x_circ", "x_times", "x_plus"):
                assert getattr(ft, f).tobytes() == getattr(st, f).tobytes()

    def test_cleared_rows_skip_the_classification(self, monkeypatch):
        system, x0, witness = generated_system(10, 40, 77)
        calls = []
        case_rule = art._case
        monkeypatch.setattr(art, "_case", lambda *a: calls.append(1) or case_rule(*a))
        rep = extended_art_solve(x0, system, witness=witness)
        assert rep.status == "solved"
        assert 1 <= len(calls) < rep.counts["iterations"] / 2

    def test_unchanged_x_plus_is_not_retested(self, monkeypatch):
        system, x0, witness = generated_system(10, 40, 77)
        seen = []
        screened = HyperslabSystem._screened

        def spy(self, x):
            seen.append(x)
            return screened(self, x)

        monkeypatch.setattr(HyperslabSystem, "_screened", spy)
        rep = extended_art_solve(x0, system, witness=witness)
        assert rep.status == "solved"
        assert all(a is not b for a, b in zip(seen, seen[1:]))
        assert len(seen) < rep.counts["iterations"]


class TestScreenedArt3:
    @pytest.mark.parametrize("n,slabs,seeds", [(2, 8, range(40)), (10, 40, range(6)), (50, 200, range(2))])
    def test_matches_the_loop(self, n, slabs, seeds):
        for seed in seeds:
            system, x0, _ = generated_system(n, slabs, 700 + seed)
            rep = art3_solve(x0, system)
            assert rep.status == "solved"
            same_as_loop(rep, art3_loop(x0, system))

    def test_every_cap_matches_the_loop(self, monkeypatch):
        system, x0, _ = generated_system(10, 40, 3)
        updates = []
        update = art.art3_update
        monkeypatch.setattr(art, "art3_update", lambda x, *row: updates.append(1) or update(x, *row))
        total = art3_solve(x0, system).counts["iterations"]
        screened_last = 0
        for cap in range(1, total + 2):
            updates.clear()
            rep = art3_solve(x0, system, max_iters=cap)
            screened_last += len(updates) < min(cap, total)  # some visit up to `cap` was screened
            assert rep.status == ("solved" if cap >= total else "iteration_limit")
            same_as_loop(rep, art3_loop(x0, system, max_iters=cap))
        assert screened_last > total // 2

    def test_screens_without_the_membership_test(self, monkeypatch):
        """ART3 reads the screen's radii alone; where the screen decides
        nothing it clears no row and screens no more often."""
        system, x0, _ = generated_system(10, 40, 3)
        screened, masks = [], []
        membership = HyperslabSystem._screened
        monkeypatch.setattr(HyperslabSystem, "_screened",
                            lambda self, x: screened.append(1) or membership(self, x))
        radii = art._RowScreen.radii
        monkeypatch.setattr(art._RowScreen, "radii", lambda self, x: masks.append(1) or radii(self, x))
        rep = art3_solve(x0, system)
        assert screened == [1]  # the final membership test
        calls = len(masks) - 1
        masks.clear()
        monkeypatch.setattr(art._RowScreen, "radii", lambda self, x: masks.append(1) and None)
        blind = art3_solve(x0, system)
        assert len(masks) - 1 == calls > 1
        same_as_loop(rep, art3_loop(x0, system))
        same_as_loop(blind, art3_loop(x0, system))

    def test_row_inside_by_less_than_the_slack_takes_the_exact_test(self, monkeypatch):
        # row 2 holds x by one ulp of a_2 x, far below the screen's slack;
        # the other rows hold it by a wide margin
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 4))
        x0 = rng.normal(size=4)
        s = np.array([float(a[j] @ x0) for j in range(6)])
        lo, up = s - 1.0, s + 1.0
        lo[2] = ulps(s[2], -1)
        system = HyperslabSystem(a, lo, up)
        assert system._screened(x0)[0].tolist() == [True, True, False, True, True, True]
        rows = []
        update = art.art3_update
        monkeypatch.setattr(art, "art3_update", lambda x, a_j, *b: rows.append(a_j) or update(x, a_j, *b))
        rep = art3_solve(x0, system)
        assert rep.status == "solved" and rep.counts["iterations"] == 6
        assert [r.tobytes() for r in rows] == [a[0].tobytes(), a[2].tobytes()]
        same_as_loop(rep, art3_loop(x0, system))


class TestSlabRules:
    """The generator checks its slabs as one system; the loader, one slab
    at a time.  Both take the same rows and bounds, and neither warns."""

    # each row or bound pair, and whether a slab takes it; a row is zero
    # when its square is, so [1e-200, 0] is, and [1e200, 0] is not
    ROWS = [([1.0, 0.0], True), ([0.0, 0.0], False), ([1e-200, 0.0], False), ([5e-324, 0.0], False),
            ([1e-160, 1e-160], True), ([1e200, 0.0], True), ([1e200, -1e200], True),
            ([math.nan, 1.0], False), ([math.inf, 0.0], False), ([1e200, -math.inf], False)]
    BOUNDS = [((0.0, 1.0), True), ((1.0, 1.0), True), ((-math.inf, math.inf), True), ((-math.inf, 0.0), True),
              ((0.0, math.inf), True), ((2.0, 1.0), False), ((math.inf, math.inf), False),
              ((-math.inf, -math.inf), False), ((math.nan, 1.0), False), ((0.0, math.nan), False)]

    @pytest.mark.parametrize("row, row_ok", ROWS)
    @pytest.mark.parametrize("bounds, bounds_ok", BOUNDS)
    def test_slab_and_system_take_the_same_rows(self, row, row_ok, bounds, bounds_ok):
        def accepts(build) -> bool:
            try:
                build()
            except ValueError:
                return False
            return True

        lo, up = bounds
        slab_ok = accepts(lambda: Hyperslab(np.array(row), lo, up))
        system_ok = accepts(lambda: HyperslabSystem(np.array([[0.0, 1.0], row]), np.array([0.0, lo]),
                                                    np.array([1.0, up])))
        assert slab_ok == system_ok == (row_ok and bounds_ok)


class TestOverflowedRowSquare:
    """A row whose square overflows moves x along a / max|a|, as the
    projection onto such a slab does, and nothing warns."""

    @staticmethod
    def system() -> HyperslabSystem:
        return HyperslabSystem(np.array([[1e200, 0.0], [0.0, 1.0]]), np.array([0.0, 0.0]), np.array([1e200, 1.0]))

    # art3 moves x1 = 3 (a.x = 3e200, beyond the band edge 1.5e200) to the
    # midplane a.x = 5e199; the extended ART projects it onto the face
    @pytest.mark.parametrize("solver, x", [(art3_solve, [0.5, 0.5]), (extended_art_solve, [1.0, 0.5])])
    def test_solved_inside_every_row(self, solver, x):
        system = self.system()
        rep = solver(np.array([3.0, -2.0]), system)
        assert rep.status == "solved" and rep.extras["membership"]
        assert rep.x.tolist() == x
        assert contains_loop(system, rep.x)

    @pytest.mark.parametrize("x1, lo, up, expected", [
        (1.2, 0.0, 1e200, 0.8),  # reflected across the upper face
        (-5.0, 0.0, 1e200, 0.5),  # far out: to the midplane
        (3.0, 0.0, math.inf, 3.0),  # inside
        (-3.0, 0.0, math.inf, 0.0),  # infinite width: projected
        (3.0, 2e200, 2e200, 2.0),  # zero width: projected
    ])
    def test_update_moves_to_the_rule_s_dot(self, x1, lo, up, expected):
        x = art3_update(np.array([x1, 7.0]), np.array([1e200, 0.0]), lo, up)
        assert x[0] == pytest.approx(expected, rel=1e-15) and x[1] == 7.0

    # a.x = -1e310 overflows: the update runs on the row over max|a|, whose
    # bounds are [0, 1], and sends x1 far out to the midplane 0.5 (absorbed)
    def test_update_with_an_overflowed_dot(self):
        with np.errstate(over="ignore"):
            x = art3_update(np.array([-1e110, 7.0]), np.array([1e200, 0.0]), 0.0, 1e200)
        assert x.tolist() == [0.0, 7.0]

    @pytest.mark.parametrize("solver, iterations", [(art3_solve, 3), (extended_art_solve, 1)])
    def test_far_start_is_solved(self, solver, iterations):
        rep = solver(np.array([-1e110, 0.0]), self.system())
        assert rep.status == "solved" and rep.extras["membership"]
        assert rep.x.tolist() == [0.0, 0.0] and rep.counts["iterations"] == iterations

    def test_inset_projection_lands_inside(self):
        a = np.array([1e200, 1e200])
        x = art._inset_projection(np.array([-1e-3, 0.0]), a, -1e197, 0.0, 1e200)
        assert 0.0 < float(np.vdot(a, x)) <= 1e200


class TestEntryPoints:
    SYSTEM = HyperslabSystem(np.eye(2), np.zeros(2), np.ones(2))

    @pytest.mark.parametrize("solver", [art3_solve, extended_art_solve])
    def test_dimension_mismatch_names_both(self, solver):
        with pytest.raises(ValueError, match="x0 has dimension 3, but the problem has dimension 2"):
            solver(np.zeros(3), self.SYSTEM)

    @pytest.mark.parametrize("solver", [art3_solve, extended_art_solve])
    def test_overflowing_start_rejected(self, solver):
        with pytest.raises(ValueError, match="x0 is too large"):
            solver(np.array([1e300, 1e300]), self.SYSTEM)

    @pytest.mark.parametrize("solver", [art3_solve, extended_art_solve])
    def test_bad_max_iters_named(self, solver):
        for value in (0, -5, 10.0, "100", True, None):
            with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
                solver(np.array([1.4, 2.0]), self.SYSTEM, max_iters=value)
        assert solver(np.array([1.4, 2.0]), self.SYSTEM, max_iters=np.int64(1)).counts["iterations"] == 1

    def test_art3_membership_computed_once(self, monkeypatch):
        calls = []

        def spy(self, x):
            calls.append(x)
            return contains_loop(self, x)

        monkeypatch.setattr(HyperslabSystem, "contains", spy)
        rep = art3_solve(np.array([1.4, 2.0]), self.SYSTEM)
        assert rep.status == "solved" and rep.extras["membership"]
        assert len(calls) == 1
