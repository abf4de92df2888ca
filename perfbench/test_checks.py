"""Tests of the benchmark's own checks and oracles.

Each check must reject a wrong answer, and each oracle must reproduce a
value known in closed form.  Run with

    python3 -m pytest perfbench/test_checks.py -q
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run

Y2_S5 = 39.003151786888736


# ---------------------------------------------------------------------------
# oracles

def test_volume_of_s5_is_pi_cubed():
    assert checks.sphere_volume(5) == pytest.approx(math.pi ** 3, rel=1e-15)
    assert checks.sphere_volume(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert checks.sphere_volume(2) == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_round_energy_level_of_s5():
    assert checks.round_y2(5) == pytest.approx(Y2_S5, rel=1e-14)
    # Y2(S^5) = 2.5 vol(S^5)^{4/5}, the normalized energy of the round metric
    assert checks.round_y2(5) == pytest.approx(2.5 * math.pi ** 2.4, rel=1e-14)


@pytest.mark.parametrize("n", [9, 10, 12])
def test_quadrature_c_matches_the_beta_function_form(n):
    def moment(a, b):  # integral_0^inf y^a (1+y^2)^-b dy
        return 0.5 * math.gamma((a + 1) / 2) * math.gamma(b - (a + 1) / 2) / math.gamma(b)

    closed = checks.sphere_volume(n - 1) * (
        moment(n + 1, n - 2) / (2 * n) + 2 * moment(n + 3, n - 2) / (n * (n + 2)))
    assert checks.bubble_c(n) == pytest.approx(closed, rel=1e-12)


def test_round_field_sigmas():
    x = np.linspace(0.1, 3.0, 7)
    zero = np.zeros_like(x)
    s1, s2 = checks.schouten_sigmas(5, x, zero, zero, zero)
    np.testing.assert_allclose(s1, 2.5)
    np.testing.assert_allclose(s2, 5 * 4 / 8)


def test_cone_test_rejects_the_cli_cone_exit_start():
    assert checks.in_cone(5, (0.1, 0.0, 0.0))
    assert not checks.in_cone(5, (3.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# relax checks

def test_eigen_check_rejects_a_perturbed_lambda():
    assert checks.check_eigen(5, 2.5 + 5e-5, "converged") == []
    assert checks.check_eigen(5, 2.5 + 2e-4, "converged")
    assert checks.check_eigen(9, 9.0 - 5e-4, "converged")
    assert checks.check_eigen(5, 2.5, "t_max")
    assert checks.check_eigen(5, math.nan, "converged")


def test_two_starts_must_agree_up_to_a_constant():
    x = np.linspace(0.0, math.pi, 64)
    assert checks.check_same_mod_constants(np.cos(x), np.cos(x) + 0.3) == []
    assert checks.check_same_mod_constants(np.cos(x), np.cos(x) + 0.01 * x)


def test_f2_check_rejects_an_increase():
    assert checks.check_f2_monotone([3.0, 2.0, 2.0], 0.0, 2.0) == []
    assert checks.check_f2_monotone([3.0, 2.0, 2.1], 0.0, 2.1)
    assert checks.check_f2_monotone([3.0, 2.0], 1e-6, 2.0)


def _run(status="t_max", t=10.0, drift=1e-10):
    return SimpleNamespace(status=status, t=t, max_V_drift=drift)


def test_conservation_check():
    assert checks.check_conservation(_run(drift=1e-10), _run(drift=2e-11)) == []
    assert checks.check_conservation(_run(drift=1e-10), _run(drift=6e-11))
    assert checks.check_conservation(_run(drift=2e-6), _run(drift=1e-7))
    assert checks.check_conservation(_run(t=9.5), _run(drift=1e-11))


def test_ladder_check_rejects_a_rung_off_the_round_level():
    ladder = (2.0, 1.0)
    good = [SimpleNamespace(eps=e, status="converged", Y2_estimate=Y2_S5) for e in ladder]
    assert checks.check_ladder(5, ladder, good) == []
    off = [good[0], SimpleNamespace(eps=1.0, status="converged", Y2_estimate=Y2_S5 * 1.002)]
    assert checks.check_ladder(5, ladder, off)
    assert checks.check_ladder(5, ladder, good[:1])


# ---------------------------------------------------------------------------
# construct checks

def test_constants_check_rejects_b_off_its_closed_form():
    b, c = checks.bubble_b(9), checks.bubble_c(9)
    assert checks.check_constants(9, b, c) == []
    assert checks.check_constants(9, b * (1 + 1e-7), c)
    assert checks.check_constants(9, b, c * (1 - 1e-7))


def test_slope_residual_vanishes_on_the_closed_form_only():
    n, a1 = 9, 3.0

    def alpha(r):  # the A = 0 solution of the slope equation
        return 2.0 / (1.0 + 2.0 * a1 * r ** (0.5 * (n - 4)))

    r = np.geomspace(0.01, 0.5, 50)
    assert np.abs(checks.slope_residual(alpha, r, 0.0, n)).max() < 1e-9
    bent = np.abs(checks.slope_residual(lambda s: alpha(s) * (1 + 1e-3 * s), r, 0.0, n))
    assert bent.max() > 1e-4


def test_glue_check():
    n, lam, gamma, delta = 9, 1e-4, 1.5, 1e-4 ** 0.26
    delta1 = ((2 / gamma - 1) * delta ** (0.5 * n) / lam) ** (2.0 / (n - 4))
    assert checks.check_glue(n, lam, gamma, delta, delta1, 1e-10, True) == []
    assert checks.check_glue(n, lam, gamma, delta, delta1 * 1.03, 1e-10, True)
    assert checks.check_glue(n, lam, gamma, delta, delta1, 1e-7, True)
    assert checks.check_glue(n, lam, gamma, delta, delta1, 1e-10, False)


def test_sweep_check():
    target = checks.k2_target(9, -1.0)
    assert checks.check_sweep(9, (1e-3, 1e-5), 1.05 * target, -1.0) == []
    assert checks.check_sweep(9, (1e-3, 1e-5), 1.11 * target, -1.0)
    assert checks.check_sweep(9, (1e-3, -1e-9), target, -1.0)


# ---------------------------------------------------------------------------
# cli checks

def test_strict_json_rejects_nan_and_infinity():
    assert checks.strict_json('{"F2": 1.5, "status": "ok"}') == {"F2": 1.5, "status": "ok"}
    for bad in ('{"F2": NaN}', '{"F2": Infinity}', '{"F2": -Infinity}'):
        with pytest.raises(ValueError):
            checks.strict_json(bad)


def test_reruns_must_be_byte_identical():
    assert checks.check_reruns(b"t,F2\n0,1\n", b"t,F2\n0,1\n") == []
    assert checks.check_reruns(b"t,F2\n0,1\n", b"t,F2\n0,1.0000000000000002\n")


def test_csv_check():
    header = ",".join(checks.CSV_COLUMNS)
    row = ",".join(["0.5"] * 9)
    problems, table = checks.check_csv(f"{header}\n{row}\n{row}\n")
    assert problems == [] and table.shape == (2, 9)
    assert checks.check_csv(f"{header}\n{','.join(['0.5'] * 8)}\n")[0]
    assert checks.check_csv(f"{header}\n{row.replace('0.5', 'nan', 1)}\n")[0]
    assert checks.check_csv(f"t,F2\n{row}\n")[0]


# ---------------------------------------------------------------------------
# reporting

def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail([1.0] * 39) is None
    p, value = run.tail([float(i) for i in range(1, 101)])
    assert p == 90 and value == 90.0
    p, value = run.tail([float(i) for i in range(45)])
    assert p == 77 and sum(v > value for v in range(45)) == 10
