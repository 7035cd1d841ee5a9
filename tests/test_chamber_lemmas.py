import hashlib
import math
import re

import numpy as np
import pytest

from cheegerlab import chamber_lemmas, jsonio
from cheegerlab.arc_geometry import curve_to_dict, signed_area
from cheegerlab.chamber_lemmas import (
    DiskChain,
    chain_from_dict,
    chain_region_area,
    chain_to_dict,
    phi,
    pocket_outline,
    random_chain,
    reference_areas,
    run_chain_sweep,
    tangency_geometry,
    verify_chain_bound,
)
from cheegerlab.errors import GenerationError, ValidationError
from oracles import (
    chain_area_exact,
    monte_carlo_area,
    pocket_angles_reference,
    random_chain_reference,
    tangent_anchors_geometry_reference,
    validate_chain_reference,
)

PI = math.pi
SQRT3 = math.sqrt(3.0)


def triangle_chain(radius=1.0):
    side = 2.0 * radius
    return DiskChain(
        np.array([[0, 0], [side, 0], [side / 2, side * SQRT3 / 2]]),
        [radius] * 3, "closed",
    )


class TestReferenceAreas:
    def test_values_at_unit_radius(self):
        delta, wedge, corner = reference_areas(1.0)
        assert delta == pytest.approx(0.1612545, abs=1e-7)
        assert wedge == pytest.approx(0.4292037, abs=1e-7)
        assert corner == pytest.approx(0.6848533, abs=1e-7)

    def test_closed_forms(self):
        delta, wedge, corner = reference_areas(2.0)
        assert delta == pytest.approx(2.0 * (2 * SQRT3 - PI), abs=1e-12)
        assert wedge == pytest.approx(4.0 * (2.0 - PI / 2.0), abs=1e-12)
        assert corner == pytest.approx(4.0 * (3 * SQRT3 - PI) / 3.0, abs=1e-12)

    def test_wedge_monte_carlo_cross_check(self):
        wd = DiskChain(np.array([[-1, 1], [1, 1]]), [1, 1], "half_plane")
        mc = monte_carlo_area(wd, samples=2_000_000)
        _, wedge, _ = reference_areas(1.0)
        assert abs(mc.area - wedge) <= 3.0 * mc.sample_error

    def test_nonpositive_radius(self):
        with pytest.raises(ValidationError):
            reference_areas(0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call, name", [
        (reference_areas, "radius r"),
        (lambda v: phi("quadrilateral", 1.0, v), "aux = l"),
        (lambda v: phi("sector", 1.0, v), "aux = r\\*"),
    ], ids=["reference_areas", "phi_quadrilateral", "phi_sector"])
    def test_non_finite_scalar_rejected(self, call, name, value):
        with pytest.raises(ValidationError, match=name):
            call(value)


class TestChainRegionArea:
    def test_one_region_pass_per_chain(self, monkeypatch):
        # validation's region pass is kept on the chain: the area, the bound
        # and the outline read it and run no pass of their own
        chains = [random_chain(flavor, 4, seed=[3, i])
                  for i, flavor in enumerate(("closed", "half_plane", "sector"))]
        want = [(chain_region_area(ch), jsonio.dumps(curve_to_dict(pocket_outline(ch))))
                for ch in chains]
        calls = []
        region = chamber_lemmas._region
        monkeypatch.setattr(chamber_lemmas, "_region", lambda *a: calls.append(a) or region(*a))
        got = [(chain_region_area(ch), jsonio.dumps(curve_to_dict(pocket_outline(ch))))
               for ch in chains]
        for ch in chains:
            verify_chain_bound(ch)
        assert got == want and not calls
        rebuilt = DiskChain(chains[0].centers, chains[0].radii, chains[0].flavor)
        assert len(calls) == 1 and chain_region_area(rebuilt) == want[0][0]

    def test_three_tangent_unit_disks(self):
        rep = chain_region_area(triangle_chain())
        delta, _, _ = reference_areas(1.0)
        assert rep.method == "decomposition"
        assert rep.area == pytest.approx(delta, abs=1e-12)

    def test_square_chain(self):
        sq = DiskChain(np.array([[0, 0], [2, 0], [2, 2], [0, 2]]), [1, 1, 1, 1], "closed")
        rep = chain_region_area(sq)
        assert rep.area == pytest.approx(4.0 - PI, abs=1e-12)

    def test_wedge_fixture(self):
        wd = DiskChain(np.array([[-1, 1], [1, 1]]), [1, 1], "half_plane")
        rep = chain_region_area(wd)
        assert rep.area == pytest.approx(2.0 - PI / 2.0, abs=1e-12)

    def test_half_plane_lemma_optimum(self):
        hp = DiskChain(np.array([[-1, 1], [0, 1 + SQRT3], [1, 1]]), [1, 1, 1], "half_plane")
        delta, wedge, _ = reference_areas(1.0)
        rep = chain_region_area(hp)
        assert rep.area == pytest.approx(delta + wedge, abs=1e-12)
        assert rep.area == pytest.approx(0.5904577, abs=1e-6)

    def test_touching_nonconsecutive_rhombus(self):
        # 60-degree rhombus: disks 1 and 3 touch, which the pocket outline cannot represent
        rh = DiskChain(np.array([[0, 0], [2, 0], [3, SQRT3], [1, SQRT3]]), [1, 1, 1, 1], "closed")
        assert rh.warnings == ("touching_nonconsecutive_1_3",)
        delta, _, _ = reference_areas(1.0)
        rep = chain_region_area(rh)
        assert rep.method == "decomposition"
        assert rep.area == pytest.approx(2.0 * delta, abs=1e-12)

    def test_monte_carlo_within_three_sigma(self):
        for chain, expected in [
            (triangle_chain(), reference_areas(1.0)[0]),
            (DiskChain(np.array([[0, 0], [2, 0], [2, 2], [0, 2]]), [1, 1, 1, 1], "closed"), 4 - PI),
        ]:
            mc = monte_carlo_area(chain, samples=1_000_000)
            assert abs(mc.area - expected) <= 3.0 * mc.sample_error

    def test_pocket_outline_matches_decomposition(self):
        # a closed chain listed clockwise and a half-plane chain listed right to
        # left are valid too, and their outlines bound the same pocket
        for flavor in ("closed", "half_plane", "sector"):
            for i in range(6):
                chain = random_chain(flavor, 3 + i % 3, seed=[7, i])
                chains = [chain]
                if flavor != "sector":
                    chains.append(DiskChain(chain.centers[::-1], chain.radii[::-1], flavor))
                for ch in chains:
                    outline_area = signed_area(pocket_outline(ch))
                    rep = chain_region_area(ch)
                    assert outline_area == pytest.approx(rep.area, rel=1e-10, abs=1e-12)

    # sha256 over jsonio.dumps(curve_to_dict(pocket_outline(chain))) for the
    # 100 chains random_chain(flavor, 3 + i % 4, seed=[23, i]), i = 0..99
    POCKET_OUTLINE_PINS = {
        "closed": "35e0d42452bfa67618c496ad966e23e7f2fb8101df14f2dc173cf5c8c883e1a4",
        "half_plane": "cda04f9dcf0685e9df397d2f5d8e63dad6a8f0ac193f380223c28740f657124b",
        "sector": "3017995f5115cbd3b24c67ee535ab83d9472e535242c37fd2f1a0edaea73607c",
    }

    @pytest.mark.parametrize("flavor", sorted(POCKET_OUTLINE_PINS))
    def test_pocket_outline_bytes_pinned(self, flavor):
        digest = hashlib.sha256()
        for i in range(100):
            chain = random_chain(flavor, 3 + i % 4, seed=[23, i])
            digest.update(jsonio.dumps(curve_to_dict(pocket_outline(chain))).encode())
        assert digest.hexdigest() == self.POCKET_OUTLINE_PINS[flavor]

    def test_shrinking_middle_radius_decreases_area(self):
        # D1, D3 fixed and tangent; the enclosed area grows with the middle radius
        areas = []
        for r2 in (1.0, 1.15, 1.3, 1.45):
            x0, y0, _, _ = tangency_geometry(1.0, r2, 1.0)
            chain = DiskChain(np.array([[0, 0], [x0, y0], [2, 0]])[[0, 1, 2]], [1.0, r2, 1.0], "closed")
            areas.append(chain_region_area(chain).area)
        assert all(a < b for a, b in zip(areas, areas[1:]))

    def test_dilation_scaling(self):
        small = triangle_chain(1.0)
        big = triangle_chain(2.5)
        assert chain_region_area(big).area == pytest.approx(
            2.5 ** 2 * chain_region_area(small).area, rel=1e-12
        )

    def test_invalid_chain_rejected(self):
        with pytest.raises(ValidationError):
            DiskChain(np.array([[0, 0], [1, 0], [0.5, 1]]), [1, 1, 1], "closed")


    def test_caller_arrays_stay_writable(self):
        # the chain freezes copies of its centers and radii, not the caller's arrays
        centers = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, SQRT3]])
        radii = np.ones(3)
        chain = DiskChain(centers, radii, "closed")
        assert centers.flags.writeable and radii.flags.writeable
        assert not chain.centers.flags.writeable and not chain.radii.flags.writeable
        centers[0] = 5.0
        radii[0] = 5.0
        assert chain.centers[0].tolist() == [0.0, 0.0] and chain.radii[0] == 1.0

class TestTangencyGeometry:
    def test_symmetric_tangent_anchors(self):
        x0, y0, d1, d3 = tangency_geometry(1.0, 1.0, 1.0)
        assert (x0, y0) == (pytest.approx(1.0), pytest.approx(SQRT3))
        assert d1 == pytest.approx(1.0 / (2.0 * SQRT3), abs=1e-12)
        assert d1 == pytest.approx(0.2886751, abs=1e-7)
        assert d3 == pytest.approx(d1, abs=1e-15)

    def test_separated_anchors(self):
        x0, y0, d1, d3 = tangency_geometry(1.0, 1.0, 1.0, l=3.0)
        assert x0 == pytest.approx(1.5, abs=1e-12)
        assert y0 == pytest.approx(math.sqrt(1.75), abs=1e-12)
        assert y0 == pytest.approx(1.3228757, abs=1e-7)
        assert d1 > 0 and d3 > 0

    @pytest.mark.parametrize("with_l", [False, True])
    def test_matches_finite_differences(self, with_l):
        rng = np.random.default_rng(17)
        step = 1e-6
        for _ in range(150):
            r1, r2, r3 = rng.uniform(0.4, 2.5, 3)
            l = float(r1 + r3 + rng.uniform(0.05, 1.5)) if with_l else None
            if with_l and l >= r1 + r3 + 2 * r2:
                continue
            x0, y0, d1, d3 = tangency_geometry(r1, r2, r3, l)
            assert d1 > 0 and d3 > 0
            span = l if with_l else r1 + r3

            def angles(rr2):
                x, y, _, _ = tangency_geometry(r1, rr2, r3, l)
                return math.atan2(y, x), math.atan2(y, span - x)

            up1, up3 = angles(r2 + step)
            dn1, dn3 = angles(r2 - step)
            assert d1 == pytest.approx((up1 - dn1) / (2 * step), rel=2e-5, abs=1e-5)
            assert d3 == pytest.approx((up3 - dn3) / (2 * step), rel=2e-5, abs=1e-5)

    def test_tangent_anchors_match_reference(self):
        # the one closed form at l = r1 + r3 against the form written for that case
        rng = np.random.default_rng(29)
        for r1, r2, r3 in rng.uniform(0.05, 5.0, (20_000, 3)).tolist():
            got = tangency_geometry(r1, r2, r3)
            want = tangent_anchors_geometry_reference(r1, r2, r3)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_explicit_tangent_distance(self):
        # l = r1 + r3 is the mutually tangent configuration l = None names
        rng = np.random.default_rng(31)
        for r1, r2, r3 in rng.uniform(0.05, 5.0, (200, 3)).tolist():
            span = r1 + r3
            assert tangency_geometry(r1, r2, r3, l=span) == tangency_geometry(r1, r2, r3)
            with pytest.raises(ValidationError, match="at least r1 \\+ r3"):
                tangency_geometry(r1, r2, r3, l=span * (1.0 - 1e-12))

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            tangency_geometry(1.0, 1.0, 1.0, l=1.5)  # l < r1 + r3
        for l in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="must be finite"):
                tangency_geometry(1.0, 1.0, 1.0, l=l)
        with pytest.raises(ValidationError):
            tangency_geometry(1.0, 0.05, 1.0, l=4.0)  # middle disk cannot reach
        with pytest.raises(ValidationError):
            tangency_geometry(-1.0, 1.0, 1.0)


class TestPhi:
    def test_pentagon_minimum(self):
        ts = np.linspace(0.0, PI / 3.0, 20001)
        vals = [phi("pentagon", float(t)) for t in ts]
        assert min(vals) == pytest.approx(0.5 + SQRT3 / 4.0, abs=1e-8)
        assert phi("pentagon", PI / 3.0) == pytest.approx(0.5 + SQRT3 / 4.0, abs=1e-10)
        assert np.argmin(vals) == len(ts) - 1  # minimum attained at pi/3
        assert phi("pentagon", PI / 3.0) == pytest.approx(0.9330127, abs=1e-7)

    def test_quadrilateral_degenerates_to_sine(self):
        for t in np.linspace(0.05, 2.5, 30):
            assert phi("quadrilateral", float(t), aux=1.0) == pytest.approx(math.sin(t), abs=1e-12)

    def test_sector_value(self):
        assert phi("sector", PI / 2.0, aux=1.0) == pytest.approx(2.0 + SQRT3, abs=1e-10)
        assert phi("sector", PI / 2.0, aux=2.0) == pytest.approx(4.0 * (2.0 + SQRT3), abs=1e-10)
        assert phi("sector", PI / 2.0, aux=1.0) == pytest.approx(3.7320508, abs=1e-7)

    def test_interval_errors(self):
        with pytest.raises(ValidationError):
            phi("pentagon", 1.5)
        with pytest.raises(ValidationError):
            phi("sector", 2.0, aux=1.0)
        with pytest.raises(ValidationError):
            phi("quadrilateral", 0.5)  # missing aux

    def test_quadrilateral_derivative_sign_matches_root_structure(self):
        # phi' >= 0 iff 4 cos^2 t - 4 l cos t + l^2 - 1 <= 0; roots (l +- 1)/2
        step = 1e-7
        for l in (1.0, 1.2, 1.5, 1.8):
            t_hi = math.acos(min(1.0, (l - 1.0) / 2.0))
            for t in np.linspace(0.05, min(t_hi + 0.5, PI - 0.05), 25):
                t = float(t)
                try:
                    d = (phi("quadrilateral", t + step, aux=l) - phi("quadrilateral", t - step, aux=l)) / (2 * step)
                except ValidationError:
                    continue
                y = math.cos(t)
                poly = 4.0 * y * y - 4.0 * l * y + l * l - 1.0
                if abs(poly) > 1e-3:
                    assert (d >= 0) == (poly <= 0), (l, t, d, poly)


class TestVerifyChainBound:
    def test_closed_equality_case(self):
        rep = verify_chain_bound(triangle_chain())
        assert rep.holds
        assert rep.area == pytest.approx(rep.bound, abs=1e-12)

    def test_half_plane_optimum(self):
        hp = DiskChain(np.array([[-1, 1], [0, 1 + SQRT3], [1, 1]]), [1, 1, 1], "half_plane")
        rep = verify_chain_bound(hp)
        assert rep.holds
        assert rep.area == pytest.approx(rep.bound, abs=1e-12)

    def test_m2_rejected(self):
        wd = DiskChain(np.array([[-1, 1], [1, 1]]), [1, 1], "half_plane")
        with pytest.raises(ValidationError):
            verify_chain_bound(wd)

    @pytest.mark.parametrize("flavor", ["closed", "half_plane", "sector"])
    def test_random_sweep_no_violations(self, flavor):
        _, violations = run_chain_sweep(flavor, 120, seed=23)
        assert violations == []

    @pytest.mark.parametrize("flavor, count, m_values, message", [
        ("closed", 3, (), "^m_values must not be empty$"),
        ("closed", 0, (), "^m_values must not be empty$"),
        ("moebius", 0, (3,), "^unknown chain flavor 'moebius'$"),
        ("moebius", 0, (), "^unknown chain flavor 'moebius'$"),
        ("closed", 0, (1,), "^m_values entries must be integers >= 3, got 1$"),
        ("closed", 1, (3, 2), "^m_values entries must be integers >= 3, got 2$"),
        ("closed", 0, (4, 3.0), "^m_values entries must be integers >= 3, got 3.0$"),
        ("closed", 0, (True,), "^m_values entries must be integers >= 3, got True$"),
    ])
    def test_sweep_arguments_rejected_before_any_chain(self, flavor, count, m_values, message):
        with pytest.raises(ValidationError, match=message):
            run_chain_sweep(flavor, count, 0, m_values=m_values)

    @pytest.mark.parametrize("count", [0, 2])
    def test_sweep_takes_a_numpy_array_of_m_values(self, count):
        got = run_chain_sweep("closed", count, 7, m_values=np.array([3, 4]))
        assert got == run_chain_sweep("closed", count, 7, m_values=[3, 4])
        assert len(got[0]) == count
        with pytest.raises(ValidationError, match="^m_values must not be empty$"):
            run_chain_sweep("closed", count, 7, m_values=np.array([], dtype=int))


class TestRandomChain:
    def test_determinism(self):
        a = random_chain("half_plane", 5, seed=99)
        b = random_chain("half_plane", 5, seed=99)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.radii, b.radii)

    def test_validity_by_construction(self):
        for flavor in ("closed", "half_plane", "sector"):
            chain = random_chain(flavor, 6, seed=1)
            assert chain.m == 6
            assert chain.warnings == ()

    def test_sector_tangencies(self):
        chain = random_chain("sector", 4, seed=5)
        assert chain.centers[0, 1] == pytest.approx(chain.radii[0], abs=1e-9)
        d = chain.centers[-1, 0] * math.sin(PI / 3) - chain.centers[-1, 1] * math.cos(PI / 3)
        assert d == pytest.approx(chain.radii[-1], abs=1e-9)

    @pytest.mark.parametrize("flavor", ["closed", "half_plane", "sector"])
    def test_matches_numpy_reference(self, flavor):
        # the rejection sampler on plain floats against the numpy 2-vector
        # oracle: the same chains, verdicts and bounds bit for bit; the two area
        # sums round differently, so each is held to the exact area instead
        exhausted = 0
        for i in range(1002):
            m = 3 + i % 6
            try:
                chain = random_chain(flavor, m, seed=[29, i])
            except GenerationError as exc:
                with pytest.raises(GenerationError, match=str(exc)):
                    random_chain_reference(flavor, m, seed=[29, i])
                exhausted += 1
                continue
            ref = random_chain_reference(flavor, m, seed=[29, i])
            assert np.array_equal(chain.centers, ref.centers), (m, i)
            assert np.array_equal(chain.radii, ref.radii), (m, i)
            rep = verify_chain_bound(chain)
            assert (chain.warnings, rep.bound, rep.holds) == (ref.warnings, ref.bound, ref.holds), (m, i)
            exact = chain_area_exact(chain.centers, chain.radii, flavor)
            for area in (rep.area, ref.area):
                assert abs(area - exact) <= 1e-14 * abs(exact), (m, i, area, exact)
        assert exhausted < 50  # nearly every seed compares a chain, not an error

    def test_validates_once_per_built_chain(self, call_counts, monkeypatch):
        validated = call_counts(chamber_lemmas, "validate_chain")
        attempts = call_counts(chamber_lemmas, "_try_chain")
        post_init = DiskChain.__post_init__
        built = []

        def recorded(chain):
            built.append(max(pocket_angles_reference(chain.centers, chain.radii, chain.flavor)))
            post_init(chain)

        monkeypatch.setattr(DiskChain, "__post_init__", recorded)
        random_chain("closed", 5, seed=1)
        assert len(built) > 1  # overlapping candidates are built and rejected
        assert validated["validate_chain"] == len(built)
        # two rejected attempts of this seed end in a candidate with a reflex
        # pocket (validate_chain would say "pocket angle at disk 3 is not
        # below pi"); neither is built
        built.clear()
        validated["validate_chain"] = attempts["_try_chain"] = 0
        random_chain("sector", 5, seed=3)
        assert attempts["_try_chain"] > 1
        assert validated["validate_chain"] == len(built) == 1
        for flavor, m in (("closed", 6), ("half_plane", 5), ("sector", 6)):
            for seed in range(10):
                random_chain(flavor, m, seed=seed)
        assert max(built) <= PI + 1e-9

    def test_draws_match_generator_uniform(self):
        # the buffered reader against one Generator.uniform call per draw, on
        # every range the sampler draws from, across several block refills
        m = 6
        ranges = [chamber_lemmas._RADIUS_RANGE, (0.25, 1.9 * PI / m), (0.45, 1.1),
                  (0.6, 1.4), (0.9, 1.4), (0.0, 0.1)]
        draws = chamber_lemmas._Draws(np.random.default_rng([5, 17]))
        rng = np.random.default_rng([5, 17])
        count = 0
        while count < 3 * chamber_lemmas._BLOCK + 10:
            radii = np.array([draws(*chamber_lemmas._RADIUS_RANGE) for _ in range(m)])
            want = rng.uniform(*chamber_lemmas._RADIUS_RANGE, m)
            assert radii.tobytes() == want.tobytes()
            assert np.sum(radii).tobytes() == np.sum(want).tobytes()
            for lo, hi in ranges:
                got = draws(lo, hi)
                assert type(got) is float
                assert got == float(rng.uniform(lo, hi)), (count, lo, hi)
            count += m + len(ranges)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            random_chain("moebius", 4, seed=0)
        with pytest.raises(ValidationError):
            random_chain("closed", 2, seed=0)


# the side of a 50-degree rhombus of unit disks, whose disks 1 and 3 overlap
_RHOMBUS_50 = [2 * math.cos(math.radians(50.0)), 2 * math.sin(math.radians(50.0))]


class TestValidateChain:
    # messages recorded with the numpy validator this one replaced, except the
    # non-finite rule, which it lacked (a NaN chain passed every comparison)
    @pytest.mark.parametrize("centers, radii, flavor, message", [
        ([[0, 0], [2, 0], [math.nan, math.nan]], [1, 1, 1], "closed",
         "disk centers and radii must be finite"),
        ([[0, 1], [2, 1]], [1, math.inf], "half_plane", "disk centers and radii must be finite"),
        ([[0, 0], [2, 0], [1, SQRT3]], [1, math.nan, 1], "closed",
         "disk centers and radii must be finite"),
        ([[0, 0], [2, 0], [1, SQRT3]], [1, 1], "closed", "centers and radii length mismatch"),
        ([[0, 0], [2, 0]], [1, 1], "closed", "chain of flavor closed needs more disks, got 2"),
        ([[0, 1]], [1], "half_plane", "chain of flavor half_plane needs more disks, got 1"),
        ([[0, 0], [2, 0], [1, SQRT3]], [1, 0, 1], "closed", "disk radii must be positive"),
        ([[0, 0], [2, 0], [1, 2]], [1, 1, 1], "closed",
         "disks 1,2 must be tangent: distance 2.2360679775, radii sum 2"),
        ([[0, 0], [2, 0], [2 + _RHOMBUS_50[0], _RHOMBUS_50[1]], _RHOMBUS_50], [1, 1, 1, 1], "closed",
         "non-consecutive disks 1,3 overlap: 1.69047304696 < 2"),
        ([[0, 1], [SQRT3, 0], [2 * SQRT3, 1]], [1, 1, 1], "half_plane",
         "a disk leaves the container region"),
        ([[0, 2], [2, 2]], [1, 1], "half_plane", "first disk must be tangent to the first line"),
        ([[0, 1], [SQRT3, 2]], [1, 1], "half_plane", "last disk must be tangent to the last line"),
        ([[4, 1], [4, 3]], [1, 1], "sector", "last disk must be tangent to the last line"),
    ], ids=["nan_center", "inf_radius", "nan_radius", "length", "few_closed", "few_open",
            "radius", "tangent", "overlap", "leaves", "first_line", "last_line", "last_ray"])
    def test_rule_message(self, centers, radii, flavor, message):
        with pytest.raises(ValidationError) as exc:
            DiskChain(np.array(centers, dtype=float), radii, flavor)
        assert str(exc.value) == message

    @pytest.mark.parametrize("reverse", [False, True], ids=["ccw", "cw"])
    def test_reflex_pocket_angle(self, reverse):
        # a dart: center 2 lies inside the triangle of centers 0, 1 and 3
        r2 = 0.3
        r1 = math.hypot(0.2, 2.0) - r2
        r0 = math.hypot(3.0, 2.0) - r1
        centers = [(0.0, 0.0), (3.0, 2.0), (2.8, 0.0), (3.0, -2.0)]
        radii = [r0, r1, r2, r1]
        if reverse:
            centers, radii = centers[::-1], radii[::-1]
        with pytest.raises(ValidationError) as exc:
            DiskChain(np.array(centers), radii, "closed")
        assert str(exc.value) == f"pocket angle at disk {1 if reverse else 2} is not below pi"

    @pytest.mark.parametrize("centers, radii, flavor, warnings", [
        ([[0, 0], [2, 0], [3, SQRT3], [1, SQRT3]], [1, 1, 1, 1], "closed",
         ("touching_nonconsecutive_1_3",)),
        ([[0, 1], [2, 1], [4, 1]], [1, 1, 1], "half_plane", ("straight_angle_1",)),
        ([[4, 1], [2, 1], [0, 1]], [1, 1, 1], "half_plane", ("straight_angle_1",)),
    ], ids=["touching", "straight", "straight_cw"])
    def test_warning(self, centers, radii, flavor, warnings):
        assert DiskChain(np.array(centers, dtype=float), radii, flavor).warnings == warnings

    def test_nudged_chains_match_numpy_reference(self):
        # nudges of 1e-7 to 1e-5 straddle the 1e-6 * scale thresholds
        rng = np.random.default_rng(41)
        seen = set()
        for i in range(2100):
            chain = random_chain(("closed", "half_plane", "sector")[i % 3], 3 + i % 4, seed=[43, i // 3])
            shape = chain.centers.shape
            nudge = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-7.0, -5.0, shape)
            centers = chain.centers + nudge
            try:
                got = ("ok", DiskChain(centers, chain.radii, chain.flavor).warnings)
            except ValidationError as exc:
                got = ("raised", str(exc))
            try:
                want = ("ok", tuple(validate_chain_reference(centers, chain.radii, chain.flavor)))
            except ValidationError as exc:
                want = ("raised", str(exc))
            assert got == want, i
            seen.add(got[0] if got[0] == "ok" else re.sub(r"\d", "#", got[1].split(":")[0]))
        assert {"ok", "disks #,# must be tangent", "a disk leaves the container region",
                "first disk must be tangent to the first line",
                "last disk must be tangent to the last line"} <= seen


class TestJson:
    @pytest.mark.parametrize("columns", [1, 3])
    def test_centers_must_be_pairs(self, columns):
        centers = np.zeros((3, columns))
        centers[:, 0] = [0.0, 2.0, 1.0]
        with pytest.raises(ValidationError, match=r"^centers must be an \(m, 2\) array"):
            DiskChain(centers, [1.0, 1.0, 1.0], "closed")

    def test_round_trip(self):
        chain = random_chain("sector", 4, seed=11)
        d = chain_to_dict(chain)
        back = chain_from_dict(d)
        assert np.allclose(back.centers, chain.centers)
        assert np.allclose(back.radii, chain.radii)
        assert len(d["lines"]) == 2

    @pytest.mark.parametrize("field, value", [
        ("radii", [True, "1", 1]),
        ("centers", [[0, "0"], [2, 0], [1, math.sqrt(3)]]),
        ("centers", [[0, 0], [2], [1, math.sqrt(3)]]),
    ])
    def test_non_numbers_rejected(self, field, value):
        d = {"flavor": "closed", "centers": [[0, 0], [2, 0], [1, math.sqrt(3)]],
             "radii": [1, 1, 1], field: value}
        with pytest.raises(ValidationError):
            chain_from_dict(d)
