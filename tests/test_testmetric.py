"""Tests for the comparison-metric construction pipeline."""

import math

import numpy as np
import pytest

import sigma2flow.testmetric as testmetric_module
from sigma2flow.discretize import gauss_panels, log_edges, sphere_measure
from sigma2flow.geometry import CurvatureModel, FlatRadialBall, schouten_pointwise
from sigma2flow.testmetric import (
    BubbleParams,
    ConstructionError,
    assemble_and_compare,
    bernoulli_alpha,
    bernoulli_residual,
    glue_lemma6,
    lemma5_integrals,
    margin_sweep,
    sphere_constants,
)

# A transition layout (r8, r7, r6, r5, r4, r0) whose glued metric keeps the
# transition in the cone.  The slope must be gone before the cap slope
# 2r^2/(1+r^2) nears 1, or the combined radial slope leaves the admissible
# band and sigma_2 goes negative mid-bridge; hence an early short taper and
# a bridge that ends by r = 1.  The glue edge delta1 lies below r8 only at
# tiny lam: lam 1e-30 at n = 9, lam 1e-9 at n = 12.
TRANSITION_RADII = (0.06, 0.10, 0.20, 0.30, 1.00, 6.00)
TRANSITION_REGIONS = ("tube", "ramp", "tube_cap", "taper", "bridge", "outer")


@pytest.fixture(scope="module")
def glue15():
    return glue_lemma6(BubbleParams(9, 1e-4), 1.5)


def _transition_regions(n, lam, gamma):
    """The transition's region reports in the assembly at TRANSITION_RADII."""
    bp = BubbleParams(n, lam, TRANSITION_RADII[-1], 0.26, -1.0)
    am = assemble_and_compare(bp, gamma, TRANSITION_RADII)
    return am, {r.name: r for r in am.regions if r.name in TRANSITION_REGIONS}


@pytest.fixture(scope="module")
def trans105():
    return _transition_regions(9, 1e-30, 1.05)


@pytest.fixture(scope="module")
def assembled():
    return assemble_and_compare(BubbleParams(9, 1e-4, delta_r=-1.0), 1.05)


@pytest.fixture(scope="module")
def sweep():
    return margin_sweep()


# ---------------------------------------------------------------------------
# sphere constants


def test_sphere_constants_round_five():
    sc = sphere_constants(5)
    assert sc.B == pytest.approx(math.pi**3 / 32.0, rel=1e-14)
    assert sc.C is None
    assert sc.Y2_sphere == pytest.approx(2.5 * (math.pi**3) ** 0.8, rel=1e-14)
    assert sc.Y2_sphere == pytest.approx(39.003151786888736, rel=1e-15)


def test_sphere_constants_beta_oracle():
    # Independent closed forms: B = vol(S^n)/2^n and, with
    # mom(a, b) = int_0^inf y^a (1+y^2)^{-b} dy = Gamma((a+1)/2) Gamma(b-(a+1)/2) / (2 Gamma(b)),
    # C = vol(S^{n-1}) * [mom(n+1, n-2)/(2n) + 2 mom(n+3, n-2)/(n(n+2))].
    def mom(a, b):
        return math.gamma((a + 1) / 2) * math.gamma(b - (a + 1) / 2) / (2 * math.gamma(b))

    # from n = 33 on, a quadrature's integrands overflow near any far tail
    # cutoff; the closed forms hold to rounding there too
    for n in (9, 10, 11, 12, 33, 34, 36, 40, 60):
        om = sphere_measure(n - 1)
        c_exact = om * (mom(n + 1, n - 2) / (2 * n) + 2 * mom(n + 3, n - 2) / (n * (n + 2)))
        sc = sphere_constants(n)
        assert sc.B == pytest.approx(sphere_measure(n) / 2**n, rel=1e-13)
        assert sc.C == pytest.approx(c_exact, rel=1e-13)
        assert math.isfinite(sc.Y2_sphere)
    assert sphere_constants(9).C == pytest.approx(0.2656420874872235, rel=5e-9)


def test_sphere_constants_y2_identity():
    for n in (5, 7, 9, 12):
        sc = sphere_constants(n)
        assert sc.Y2_sphere == 2.0 * n * (n - 1) * sc.B ** (4.0 / n)


def test_sphere_constants_validation():
    with pytest.raises(ValueError, match="need n >= 5, got 4"):
        sphere_constants(4)
    with pytest.raises(ValueError, match="integrable only for n >= 9"):
        sphere_constants(5).require_C()
    sc9 = sphere_constants(9)
    assert sc9.require_C() == sc9.C


# ---------------------------------------------------------------------------
# bubble parameters


def test_bubble_params_validation():
    with pytest.raises(ValueError, match="need dimension n >= 9, got 8"):
        BubbleParams(8, 1e-4)
    with pytest.raises(ValueError, match="need lam > 0"):
        BubbleParams(9, 0.0)
    with pytest.raises(ValueError, match="need r0 > 0"):
        BubbleParams(9, 1e-4, r0=0.0)
    with pytest.raises(ValueError, match=r"beta must lie strictly in \(1/4, 1/2\)"):
        BubbleParams(9, 1e-4, beta=0.25)
    with pytest.raises(ValueError, match="delta_r must be <= 0"):
        BubbleParams(9, 1e-4, delta_r=0.5)
    with pytest.raises(ValueError, match="cutoff radius"):
        BubbleParams(9, 0.9, r0=0.9, beta=0.45)
    # 0.9**0.45 < 1.0, so this one is legitimate
    BubbleParams(9, 0.9, r0=1.0, beta=0.45)


def test_bubble_params_delta_and_model():
    bp = BubbleParams(9, 1e-4)
    assert bp.delta == 1e-4**0.26 == pytest.approx(0.09120108393559097, rel=1e-15)
    assert isinstance(bp.model(), FlatRadialBall)
    curved = BubbleParams(9, 1e-4, delta_r=-1.0)
    model = curved.model()
    assert isinstance(model, CurvatureModel)
    assert model.delta_r == -1.0


# ---------------------------------------------------------------------------
# bubble traces


def _bubble_traces(bp, r):
    """(tr A, tr A^2) of the bubble Schouten matrix, as criterion 8 takes them."""
    v = bp.lam + r * r
    up, upp = 2.0 * r / v, 2.0 / v - 4.0 * r * r / (v * v)
    w_r, w_t, var = schouten_pointwise(bp.model(), r, up, upp)
    return w_r + (bp.n - 1) * w_t, w_r * w_r + (bp.n - 1) * w_t * w_t + var


def test_lemma4_traces_flat_closed_form():
    bp = BubbleParams(9, 1e-4)
    r = np.linspace(0.01, 2.4, 100)
    tr_a, tr_a2 = _bubble_traces(bp, r)
    v = bp.lam + r * r
    np.testing.assert_allclose(tr_a, 2 * 9 * bp.lam / v**2, rtol=1e-10)
    np.testing.assert_allclose(tr_a2, 4 * 9 * bp.lam**2 / v**4, rtol=1e-10)
    tr_a, tr_a2 = _bubble_traces(bp, 0.37)
    assert tr_a == pytest.approx(0.09590281847724391, rel=1e-13)
    assert tr_a2 == pytest.approx(0.001021927843542133, rel=1e-13)


def test_lemma4_traces_curvature_contribution():
    bp = BubbleParams(9, 1e-4, delta_r=-1.0)
    tr_a, tr_a2 = _bubble_traces(bp, 0.37)
    assert tr_a == pytest.approx(0.0954274712550217, rel=1e-12)
    assert tr_a2 == pytest.approx(0.04135690704454891, rel=1e-12)
    _, flat_a2 = _bubble_traces(BubbleParams(9, 1e-4), 0.37)
    # the deficit's anisotropy dominates tr A^2 at this radius
    assert tr_a2 > 10 * flat_a2


# ---------------------------------------------------------------------------
# bubble-patch integrals


def _lemma5_deviations(bp):
    """Relative deviations of the scaled bubble energy and volume from their
    leading terms 2n(n-1)B + C delta_r lam^2 and B."""
    n, lam = bp.n, bp.lam
    energy, volume = lemma5_integrals(bp)
    sc = sphere_constants(n)
    s2_leading = 2.0 * n * (n - 1) * sc.B
    if bp.delta_r != 0.0:
        s2_leading += sc.C * bp.delta_r * lam * lam
    return (abs(energy * lam ** (0.5 * n - 2.0) - s2_leading) / abs(s2_leading),
            abs(volume * lam ** (0.5 * n) - sc.B) / sc.B)


def test_lemma5_flat_expansion():
    energy, volume = lemma5_integrals(BubbleParams(9, 1e-4))
    assert energy == pytest.approx(71723353656.40498, rel=1e-12)
    assert volume == pytest.approx(4.980788448361455e16, rel=1e-12)
    # single-lam deviation is the cutoff remainder ~ lam^{n(1/2-beta)} ~ 1.4e-7
    s2_dev, vol_dev = _lemma5_deviations(BubbleParams(9, 1e-4))
    assert s2_dev < 5e-7
    assert vol_dev < 5e-7


def test_lemma5_curved_leading_shift():
    assert _lemma5_deviations(BubbleParams(9, 1e-4, delta_r=-1.0))[0] < 5e-7


def test_lemma5_cutoff_remainder_scaling():
    # halving lam twice shrinks the remainder like lam^{n(1/2-beta)} = lam^2.16
    d_coarse = _lemma5_deviations(BubbleParams(9, 1e-4))[0]
    d_fine = _lemma5_deviations(BubbleParams(9, 2.5e-5))[0]
    assert d_coarse / d_fine > 8.0


# ---------------------------------------------------------------------------
# annulus slope profile


def test_bernoulli_alpha_closed_form_unpadded():
    r = np.geomspace(0.09, 0.35, 101)
    a1 = 2.341287650077218
    alpha = bernoulli_alpha(r, a1, 0.0, 9)
    np.testing.assert_array_equal(alpha, 2.0 / (1.0 + 2.0 * a1 * r**2.5))


def test_bernoulli_residual_small():
    r = np.geomspace(0.09120108393559097, 0.34675754109638823, 257)
    res = bernoulli_residual(r, 2.341287650077218, 0.01, 9)
    assert np.abs(res).max() < 1e-8


def test_bernoulli_band_violations():
    with pytest.raises(ValueError, match=r"admissible band \(0, 2\)"):
        bernoulli_alpha(np.array([1.0]), 0.0, 0.0, 9)  # alpha = 2 exactly
    with pytest.raises(ValueError, match="need r > 0"):
        bernoulli_alpha(np.array([-1.0]), 0.5, 0.0, 9)


# ---------------------------------------------------------------------------
# gluing annulus


def test_glue_matching_data(glue15):
    g = glue15
    assert g.delta == pytest.approx(0.09120108393559097, rel=1e-15)
    assert g.delta1 == pytest.approx(0.34675754109638823, rel=1e-12)
    assert g.a1 == pytest.approx(2.341287650077218, rel=1e-12)
    assert g.b0 == pytest.approx(0.7392059987853123, rel=1e-12)
    assert g.boundary_match_inner < 1e-12
    assert g.boundary_match_outer < 1e-12
    alpha = g.alpha(np.geomspace(g.delta, g.delta1, 1001))
    assert np.all(np.diff(alpha) < 0.0)
    assert alpha.min() > g.gamma - 1e-9
    assert alpha.max() < 2.0


def test_glue_outer_radius_ratio(glue15):
    g = glue15
    assert g.delta1_ratio_target == pytest.approx(2.0 / 1.5 - 1.0, rel=1e-14)
    assert abs(g.delta1_ratio / g.delta1_ratio_target - 1.0) < 0.05
    assert g.delta1_ratio == pytest.approx(0.33889470756977597, rel=1e-12)


def test_glue_cone_certificate(glue15):
    g = glue15
    assert g.cone_ok
    assert g.min_sigma1 == pytest.approx(12.746171207034706, rel=1e-9)
    assert g.min_sigma2 == pytest.approx(0.8420603196068512, rel=1e-9)
    assert g.padded_quad_min > 0.0
    assert g.sigma1_bracket_min == pytest.approx(4.5, abs=1e-12)
    assert g.sigma2_bracket_min > -1e-12
    assert g.padding_dominates


def test_glue_scaling_constants(glue15):
    assert glue15.energy_const == pytest.approx(2.3875992540011186, rel=1e-9)
    assert glue15.volume_const == pytest.approx(0.06622005170203853, rel=1e-9)
    # the normalized constants stay order-one as the bubble scale moves
    other = glue_lemma6(BubbleParams(9, 1e-3), 1.5)
    assert 0.3 < other.energy_const / glue15.energy_const < 3.0
    assert 0.3 < other.volume_const / glue15.volume_const < 3.0


@pytest.mark.parametrize("n", [9, 10, 12])
def test_delta1_is_the_full_bisection(n):
    # the bisection stops once a step leaves its bracket unchanged; delta1
    # must be the value that all 200 steps give
    for lam, gamma in ((1e-4, 1.5), (1e-3, 1.05)):
        core = testmetric_module._GluingCore(n, lam, 0.26, gamma, 0.01)
        lo, hi = core.delta, 1.0
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if core.alpha(mid) > gamma:
                lo = mid
            else:
                hi = mid
        assert core.delta1 == 0.5 * (lo + hi)


@pytest.mark.parametrize("A", [0.0, 0.01])
@pytest.mark.parametrize("n", [9, 10, 12])
def test_annulus_potential_matches_direct_quadrature(n, A):
    # the potential table, built in one pass with H, against Gauss panels of
    # alpha/t from delta to radii spread over the whole table range
    core = testmetric_module._GluingCore(n, 1e-4, 0.26, 1.05, A)
    for r in np.geomspace(0.5 * core.delta, 1.5, 13):
        lo, hi = sorted((core.delta, float(r)))
        w = gauss_panels(lambda t: core.alpha(t) / t, log_edges(lo, hi, 16))
        want = w if r > core.delta else -w
        assert float(core._w(r)) == pytest.approx(want, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("A", [0.0, 0.01])
@pytest.mark.parametrize("n", [9, 10, 12])
def test_annulus_h_matches_the_bernoulli_table(n, A):
    # H of the core is tabled from delta and shifted; the bernoulli_alpha
    # table is anchored at 1 on nodes of its own
    core = testmetric_module._GluingCore(n, 1e-4, 0.26, 1.05, A)
    lo, hi = 0.5 * core.delta, 1.5
    r = np.geomspace(lo, hi, 1001)
    ref = testmetric_module._bernoulli_h(A, n, lo, hi)(r)
    np.testing.assert_allclose(core._h(r), ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())
    np.testing.assert_allclose(core.alpha(r), bernoulli_alpha(r, core.a1, A, n), rtol=1e-14)


def test_potential_table_reads_h_without_a_search(monkeypatch):
    # H reaches the potential's Gauss points by the fixed offsets, not by a
    # table look-up: the only searches while a core is built are for single
    # radii (the anchor shift, a1, the r = 1 check, the bisection for delta1
    # and u at delta1)
    sizes = []
    real = np.searchsorted

    def counting(a, v, *args, **kwargs):
        sizes.append(np.size(v))
        return real(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    testmetric_module._GluingCore(9, 1e-4, 0.26, 1.05, 0.01)
    assert sizes and set(sizes) == {1}
    assert len(sizes) <= 205


def test_glue_validation():
    bp = BubbleParams(9, 1e-4)
    with pytest.raises(ValueError, match=r"gamma must lie in \(1, 2\)"):
        glue_lemma6(bp, 2.5)


def test_construction_error_shape():
    err = ConstructionError("glue", "something failed")
    assert isinstance(err, RuntimeError)
    assert err.stage == "glue"
    assert str(err) == "[glue] something failed"


# ---------------------------------------------------------------------------
# transition annulus


def test_transition_default_passes(trans105):
    # the region report of the glued metric is the transition's certificate
    am, regions = trans105
    assert am.eps_margin == 0.15
    assert all(r.in_cone for r in regions.values())
    # the margin inside the slope taper, and the margin under the cap cutoff
    # window, which must be at least 10% of it
    interior = regions["taper"].min_sigma2
    assert interior == pytest.approx(4.422397318386222, rel=1e-9)
    assert regions["bridge"].min_sigma2 == pytest.approx(2.4617006230408074, rel=1e-9)
    assert min(regions["tube"].min_sigma2, regions["ramp"].min_sigma2) >= 0.1 * interior


def test_transition_in_the_cone_at_n12():
    _, regions = _transition_regions(12, 1e-9, 1.05)
    assert tuple(regions) == TRANSITION_REGIONS
    assert all(r.in_cone for r in regions.values())
    assert regions["taper"].min_sigma2 == pytest.approx(9.466561790076568, rel=1e-9)


def test_transition_slope_and_cutoff(trans105):
    prof = trans105[0].profile
    gamma, eps = prof.gamma, prof.eps
    assert float(prof._taper_alpha(prof.r6)) == pytest.approx(gamma, abs=1e-12)
    assert prof.alpha5 == float(prof._taper_alpha(prof.r5))
    r_taper = np.linspace(prof.r6, prof.r5, 64)
    assert np.all(np.diff(prof._taper_alpha(r_taper)) < 0.0)
    # the taper solves the eps-padded slope equation; a' by central differences
    r = np.geomspace(prof.r6 * (1.0 + 1e-9), prof.r5 * (1.0 - 1e-9), 257)
    h = 1e-6 * r
    a = prof._taper_alpha(r)
    ap = (prof._taper_alpha(r + h) - prof._taper_alpha(r - h)) / (2.0 * h)
    np.testing.assert_allclose(prof._taper_alpha_prime(r), ap, rtol=1e-7)
    residual = 0.25 * (2.0 * a - a * a - eps * a) + r * ap - eps * a
    assert np.abs(residual).max() < 1e-9
    # the cap cutoff ramps from the tube to the tube with the cap on
    for rj, plain in ((prof.r8, "tube"), (prof.r7, "tube_cap")):
        ramp = np.asarray(prof.eval_region(np.array([rj]), "ramp"))
        np.testing.assert_allclose(ramp, np.asarray(prof.eval_region(np.array([rj]), plain)),
                                   rtol=0.0, atol=1e-14)


def test_transition_joint_continuity(assembled):
    # the two regions that meet at each of the nine joints agree there in u
    # and u', and in u'' to 1e-12 relative but at r6 and r5: there the
    # taper's slope derivative switches on and off, and u'' jumps (by 0.052
    # and 0.041 here); these are the open C^1 joints of the transition
    prof = assembled.profile
    half = 0.5 * prof.blend_w
    joints = (prof.delta - half, prof.delta + half, prof.delta1 - half, prof.delta1 + half,
              prof.r8, prof.r7, prof.r6, prof.r5, prof.r4)
    regions = assembled.regions
    assert tuple(r.r_hi for r in regions[:-1]) == joints
    assert tuple(r.r_lo for r in regions[1:]) == joints
    for rj, inner, outer in zip(joints, regions, regions[1:]):
        lo = np.asarray(prof.eval_region(np.array([rj]), inner.name))[:, 0]
        hi = np.asarray(prof.eval_region(np.array([rj]), outer.name))[:, 0]
        np.testing.assert_allclose(hi[:2], lo[:2], rtol=0.0, atol=1e-8)
        if rj not in (prof.r6, prof.r5):
            np.testing.assert_allclose(hi[2], lo[2], rtol=1e-12, atol=0.0)


def test_transition_steep_tube_fails():
    # At gamma = 1.5 the taper keeps too much slope into the bridge: the
    # combined radial log-slope exceeds 2 where the cap slope approaches 1,
    # so sigma_2 goes negative mid-bridge, near r = 0.685.
    am, regions = _transition_regions(9, 1e-30, 1.5)
    assert am.eps_margin == 0.08
    assert not regions["bridge"].in_cone and not am.gamma2_ok
    assert regions["bridge"].min_sigma2 == pytest.approx(-2.2690448577149542, rel=1e-9)
    assert all(r.in_cone for name, r in regions.items() if name != "bridge")


def test_transition_validation(monkeypatch):
    # the taper needs 2 - 5 eps > gamma, which the derived margin keeps
    monkeypatch.setattr(testmetric_module, "_eps_margin", lambda gamma: 0.1)
    bp = BubbleParams(9, 1e-30, TRANSITION_RADII[-1], 0.26, -1.0)
    with pytest.raises(ConstructionError, match=r"need 2 - 5 eps > gamma"):
        assemble_and_compare(bp, 1.5, TRANSITION_RADII)


# ---------------------------------------------------------------------------
# assembled metric


def test_assemble_margin(assembled):
    am = assembled
    assert am.eps_margin == 0.15  # auto: min(0.15, 0.8 (2 - gamma)/5)
    assert am.beta_in_proof_range
    assert am.Y2_sphere == pytest.approx(37.96504289994781, rel=1e-12)
    assert am.F2_tilde == pytest.approx(37.96503550127057, rel=1e-10)
    assert am.margin == pytest.approx(7.3986772335388196e-06, rel=1e-4)
    assert am.margin > 0.0
    assert am.flat is not None and am.flat.margin > 0.0


def test_assemble_curvature_response(assembled):
    am = assembled
    sc = sphere_constants(9)
    assert am.lambda2_target == pytest.approx(sc.B ** (-5.0 / 9.0) * sc.C * -1.0, rel=1e-14)
    # the single-lam slope carries the next-order remainder; the sweep fit is sharper
    assert am.lambda2_slope / am.lambda2_target > 0.8
    assert am.lambda2_slope / am.lambda2_target < 1.2


def test_assemble_region_report(assembled):
    am = assembled
    names = tuple(r.name for r in am.regions)
    assert names == ("bubble", "seam_inner", "annulus", "seam_outer", "tube",
                     "ramp", "tube_cap", "taper", "bridge", "outer")
    by_name = {r.name: r for r in am.regions}
    for name in ("bubble", "annulus", "tube", "outer"):
        assert by_name[name].in_cone
    # at desk-scale lam the cap ramp/taper/bridge carry genuine negative-
    # sigma_2 zones (the energy comparison does not need them in the cone),
    # and the report says so instead of hiding it
    assert not by_name["bridge"].in_cone
    assert not am.gamma2_ok
    for r in am.regions:
        assert r.r_lo < r.r_hi
        assert np.isfinite(r.energy) and r.volume > 0.0


def test_assemble_profile_eval(assembled):
    # u through the first region whose extent holds each radius
    u = []
    for r in (0.01, 0.1, 1.0):
        name = next(reg.name for reg in assembled.regions if reg.r_lo <= r <= reg.r_hi)
        u.append(assembled.profile.eval_region(np.array([r]), name)[0][0])
    np.testing.assert_allclose(u, [-7.39590422, -3.47438548, 0.69314718], atol=1e-6)


def test_seam_windows_read_the_annulus_potential(assembled):
    # the seam blends evaluate the annulus a half window past both of its
    # edges; there, too, u must be u(delta) plus the integral of alpha/t
    prof = assembled.profile
    glue = prof.glue
    half = 0.5 * prof.blend_w
    for r in np.concatenate([np.linspace(prof.delta - half, prof.delta, 5),
                             np.linspace(prof.delta1, prof.delta1 + half, 5)]):
        lo, hi = sorted((prof.delta, float(r)))
        w = gauss_panels(lambda t: glue.alpha(t) / t, log_edges(lo, hi, 8)) if hi > lo else 0.0
        want = glue.u_inner + (w if r > prof.delta else -w)
        assert float(glue.u(r)) == pytest.approx(want, rel=0.0, abs=1e-12)
        assert float(prof.eval_region(np.array([r]), "annulus")[0][0]) == float(glue.u(r))


def test_refine_is_per_panel_linspace(assembled):
    refine = testmetric_module._refine
    pieces = [edges for _, edges in assembled.profile.pieces()]
    pieces.append(np.geomspace(1e-9, 40.0, 7))
    for edges in pieces:
        for per_panel in (1, 5, 33):
            want = np.concatenate([np.linspace(a, b, per_panel, endpoint=False)
                                   for a, b in zip(edges[:-1], edges[1:])] + [edges[-1:]])
            assert refine(edges, per_panel).tobytes() == want.tobytes()


def test_flat_twin_shares_the_profile(monkeypatch):
    builds = []
    real = testmetric_module._GluingCore.__init__

    def counting(self, *args):
        builds.append(args)
        real(self, *args)

    monkeypatch.setattr(testmetric_module._GluingCore, "__init__", counting)
    am = assemble_and_compare(BubbleParams(9, 1e-4, delta_r=-1.0), 1.05)
    assert len(builds) == 1
    assert am.flat.profile is am.profile
    assert am.flat.bp.delta_r == 0.0 and am.flat.flat is None
    assert am.flat.regions != am.regions


def test_assembly_evaluates_all_regions_in_one_pass(monkeypatch):
    # one profile evaluation per region over its quadrature and cone nodes
    # together, and one background evaluation per node set and model
    schouten_calls = []
    real_schouten = testmetric_module.schouten_tables

    def counting_schouten(background, x):
        schouten_calls.append(np.size(x))
        return real_schouten(background, x)

    region_calls = []
    depth = [0]
    real_eval = testmetric_module._PatchProfile.eval_region

    def counting_eval(self, r, region):
        # the seam blends evaluate their neighbours through eval_region too;
        # count only the assembly's own calls
        if depth[0] == 0:
            region_calls.append(region)
        depth[0] += 1
        try:
            return real_eval(self, r, region)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(testmetric_module, "schouten_tables", counting_schouten)
    monkeypatch.setattr(testmetric_module._PatchProfile, "eval_region", counting_eval)
    am = assemble_and_compare(BubbleParams(9, 1e-4, delta_r=-1.0), 1.05)
    assert len(schouten_calls) == 4
    assert region_calls == [r.name for r in am.regions]
    assert sorted(schouten_calls) == sorted(
        2 * [sum(r.quad_nodes for r in am.regions), sum(r.cone_nodes for r in am.regions)])


@pytest.mark.parametrize("n", [9, 10, 12])
def test_regions_equal_the_sums_over_their_own_nodes(n):
    # the one-pass assembly against _masses and _cone_values applied to each
    # region alone, bit for bit, for the deficit model and its flat twin
    am = assemble_and_compare(BubbleParams(n, 1e-4, delta_r=-1.0), 1.05)
    prof = am.profile
    plan = prof.region_nodes()
    assert [p[0] for p in plan] == [r.name for r in am.regions]
    for rep in (am, am.flat):
        model = rep.bp.model(testmetric_module.CUT_RADIUS, testmetric_module.CUT_WIDTH)
        for (name, r_lo, r_hi, rq, wq, rc), region in zip(plan, rep.regions):
            [[energy]], [volume] = testmetric_module._masses(
                rq, wq, prof.eval_region(rq, name), [model], n, [0, rq.size])
            [(m1, m2)] = testmetric_module._cone_values(rc, prof.eval_region(rc, name), [model])
            assert (region.r_lo, region.r_hi) == (r_lo, r_hi)
            assert (region.quad_nodes, region.cone_nodes) == (rq.size, rc.size)
            assert region.energy == energy and region.volume == volume, name
            assert region.min_sigma1 == float(m1.min()), name
            assert region.min_sigma2 == float(m2.min()), name


def test_assemble_validation():
    bp = BubbleParams(9, 1e-4, delta_r=-1.0)
    with pytest.raises(ValueError, match=r"gamma must lie in \(1, 2\)"):
        assemble_and_compare(bp, 2.5)
    with pytest.raises(ValueError, match="six increasing values"):
        assemble_and_compare(bp, 1.05, radii=(0.65, 0.85, 1.0))


# ---------------------------------------------------------------------------
# margin sweep


def test_margin_sweep_positive_margins(sweep):
    ms = sweep
    assert ms.lams == (1e-3, 3e-4, 1e-4)
    expected = (1.383115416345504e-03, 9.412432289224171e-05, 7.3986772335388196e-06)
    for got, want in zip(ms.margins, expected):
        assert got == pytest.approx(want, rel=1e-4)
        assert got > 0.0
    for flat in ms.flat_margins:
        assert flat > 0.0
    # curvature lowers the energy, widening the margin at every scale
    for curved, flat in zip(ms.margins, ms.flat_margins):
        assert curved > flat


def test_margin_sweep_fit(sweep):
    ms = sweep
    assert sphere_constants(9).C > 0.0
    assert ms.K2_target == pytest.approx(-1.4061126999980647, rel=1e-12)
    assert ms.K2_fit == pytest.approx(-1.3635369022518948, rel=1e-6)
    assert ms.K2_rel_dev < 0.1
    assert len(ms.reports) == 3
    for lam, rep in zip(ms.lams, ms.reports):
        assert rep.bp.lam == lam
    assert ms.F2_tilde == tuple(rep.F2_tilde for rep in ms.reports)


def test_margin_sweep_fits_the_dimension_remainder():
    # the remainder exponent of the fit is (n - 4)/2: 3 at n = 10
    assert margin_sweep(10, (1e-3, 3e-4, 1e-4), 1.05, 0.26).K2_rel_dev < 0.1


def test_margin_sweep_validation():
    with pytest.raises(ValueError, match="strict deficit delta_r < 0"):
        margin_sweep(delta_r=0.0)


def test_construction_under_strict_float_errors():
    # no overflow, underflow, division or invalid operation anywhere in the
    # sweep's assemblies, in the transition layout's assemblies (where the
    # seams and the bridge leave the cone) or in the gluing annulus
    with np.errstate(all="raise"):
        margin_sweep()
        margin_sweep(12, (1e-3, 3e-4, 1e-4), 1.05, 0.26)
        _transition_regions(12, 1e-9, 1.05)
        _transition_regions(9, 1e-30, 1.5)
        for lam in (1e-3, 1e-5):
            glue_lemma6(BubbleParams(9, lam), 1.5)
            glue_lemma6(BubbleParams(10, lam, delta_r=-1.0), 1.05)
