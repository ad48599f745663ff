import math

import numpy as np
import pytest

from projqp import art
from projqp.art import (
    ArtPolicy,
    HyperslabSystem,
    art3_solve,
    art3_update,
    classify_case,
    extended_art_solve,
    extrapolate_plus,
    load_system,
    save_system,
    tilde_bounds,
)
from projqp.bench import generate_problem, hyperslab_system_from_sets
from projqp.convex_sets import problem_from_dict


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
    A = np.array([1.0, 0.0])

    def test_case1(self):
        assert classify_case(np.zeros(2), np.array([0.5, 0.0]), self.A, 0.0, 1.0) == 1

    def test_case2(self):
        # x_plus in the band above U, x_times outside the slab
        x_plus = np.array([1.2, 0.0])
        x_times = np.array([1.1, 0.0])
        assert classify_case(x_times, x_plus, self.A, 0.0, 1.0) == 2

    def test_case3(self):
        x_plus = np.array([1.2, 0.0])
        x_times = np.array([0.9, 0.0])
        assert classify_case(x_times, x_plus, self.A, 0.0, 1.0) == 3

    def test_case4(self):
        x_plus = np.array([1.8, 0.0])
        x_times = np.array([1.1, 0.0])
        assert classify_case(x_times, x_plus, self.A, 0.0, 1.0) == 4

    def test_case5(self):
        x_plus = np.array([1.8, 0.0])
        x_times = np.array([0.5, 0.0])
        assert classify_case(x_times, x_plus, self.A, 0.0, 1.0) == 5

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

    def test_always_plus_policy_is_fejer(self):
        doc = generate_problem("hyperslabs-with-interior", 4, 8, 23)
        sets, x0, extras = problem_from_dict(doc)
        system = hyperslab_system_from_sets(sets)
        w = np.asarray(extras["witness"])
        policy = ArtPolicy(case2="plus", case4="plus", case5="plus")
        rep = extended_art_solve(x0, system, policy=policy, witness=w)
        assert rep.status == "solved"
        assert rep.counts["p_circ"] == 0 and rep.counts["p_times"] == 0
        assert rep.extras["fejer_max_increase"] <= 1e-9

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

    def test_infinite_width_rows(self):
        system = HyperslabSystem(
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.array([0.0, -np.inf]),
            np.array([np.inf, 1.0]),
        )
        rep = extended_art_solve(np.array([-3.0, 4.0]), system)
        assert rep.status == "solved"
        assert system.contains(rep.x)


class TestTextFormat:
    def test_roundtrip(self, tmp_path):
        system = HyperslabSystem(
            np.array([[1.0, 2.0], [3.0, -4.0]]),
            np.array([-1.0, -np.inf]),
            np.array([1.0, 2.5]),
        )
        path = tmp_path / "system.txt"
        save_system(path, system)
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
    ])
    def test_malformed_text_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            HyperslabSystem.from_text(text)


class TestArtPolicyValidation:
    """Each field is checked on construction; a bad value names its field."""

    BAD = {
        "case2": ["times", "bogus", None],
        "case4": ["bogus", "P_plus", 4],
        "case5": ["circ", "bogus"],
    }

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_bad_value_names_field(self, name):
        for value in self.BAD[name]:
            with pytest.raises(ValueError, match=f"ArtPolicy.{name} must be"):
                ArtPolicy(**{name: value})

    def test_every_field_is_checked(self):
        assert set(self.BAD) == set(ArtPolicy.__dataclass_fields__)

    def test_documented_values_accepted(self):
        for case2 in ("circ", "plus"):
            for case4 in ("times", "circ", "plus"):
                for case5 in ("times", "plus"):
                    ArtPolicy(case2=case2, case4=case4, case5=case5)


class TestScreenedMembership:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 8), (10, 40), (50, 200)])
    def test_contains_and_tight_slabs_match_the_loops(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        for _ in range(20):
            for system, x in edge_cases(rng, n, m):
                assert system.contains(x) == contains_loop(system, x)
                assert art._tight_slabs(system, x) == tight_slabs_loop(system, x)

    def test_tight_slabs_at_the_tolerance_edge(self):
        # powers of two make |ax - bound| == tol (1 + |ax|) exact at k = 0
        tol = 2.0**-30
        x = np.array([1.0, 4.0, 0.5, -2.0])
        ax = x.copy()
        scale = tol * (1.0 + np.abs(ax))
        for k in (-1, 0, 1):
            lo = np.array([ulps(v, k) for v in ax - scale])
            up = np.array([ulps(v, k) for v in ax + scale])
            for system, tight in ((HyperslabSystem(np.eye(4), lo, np.full(4, np.inf)), k >= 0),
                                  (HyperslabSystem(np.eye(4), np.full(4, -np.inf), up), k <= 0)):
                assert tight_slabs_loop(system, x, tol) == ((0, 1, 2, 3) if tight else ())
                assert art._tight_slabs(system, x, tol) == tight_slabs_loop(system, x, tol)

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
                assert system._screen.inside(x) is None
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
                mp.setattr(art._RowScreen, "inside", lambda self, x: None)  # no row is cleared
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
        classify = art.classify_case
        monkeypatch.setattr(art, "classify_case", lambda *a: calls.append(1) or classify(*a))
        rep = extended_art_solve(x0, system, witness=witness)
        assert rep.status == "solved"
        assert len(calls) < rep.counts["iterations"] / 2

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
