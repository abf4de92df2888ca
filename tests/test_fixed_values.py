"""The construction's padding, margin and cutoff, the blow-up floor, the
Jacobi sweep cap and the Gauss rule are fixed values, not options."""

import math

import numpy as np
import pytest

from sigma2flow import flow, symfun, testmetric
from sigma2flow.cli import parse_and_dispatch
from sigma2flow.discretize import gauss_panels, sphere_latitude
from sigma2flow.geometry import ConformalField, RoundSphere, functional_F2

_BP = testmetric.BubbleParams(9, 1e-4, delta_r=-1.0)
_GRID = sphere_latitude(5, 32)


@pytest.mark.parametrize("call,keyword,value", [
    *((testmetric.assemble_and_compare, key, value) for key, value in
      (("A", 0.01), ("eps_margin", 0.1), ("r_cut", 0.12), ("cut_width", 0.04))),
    *((testmetric.margin_sweep, key, value) for key, value in
      (("A", 0.01), ("eps_margin", 0.1), ("r_cut", 0.12), ("cut_width", 0.04))),
    (testmetric.glue_lemma6, "A", 0.01),
    (flow.FlowConfig, "blowup_floor", -10.0),
    (flow.flow_state, "t", 0.0),
    (functional_F2, "fields", None),
    (symfun.jacobi_eigenvalues, "max_sweeps", 60),
    (gauss_panels, "nodes", 24),
], ids=lambda v: v.__name__ if callable(v) else str(v))
def test_removed_keywords_raise_type_error(call, keyword, value):
    args = {
        testmetric.assemble_and_compare: (_BP, 1.05),
        testmetric.margin_sweep: (),
        testmetric.glue_lemma6: (testmetric.BubbleParams(9, 1e-4), 1.5),
        flow.FlowConfig: (2.0,),
        flow.flow_state: (RoundSphere(5), ConformalField(_GRID, 0.1 * np.cos(_GRID.x)), 2.0),
        functional_F2: (_GRID, RoundSphere(5), np.zeros(32)),
        symfun.jacobi_eigenvalues: (np.eye(2),),
        gauss_panels: (np.exp, [0.0, 1.0]),
    }[call]
    with pytest.raises(TypeError, match=f"'{keyword}'"):
        call(*args, **{keyword: value})


@pytest.mark.parametrize("command", ["construct", "sweep"])
@pytest.mark.parametrize("flag,key", [("--A", "a_pad"), ("--eps-margin", "eps_margin"),
                                      ("--r-cut", "r_cut"), ("--cut-width", "cut_width")])
def test_removed_flags_and_config_keys_are_usage_errors(capsys, tmp_path, command, flag, key):
    assert parse_and_dispatch([command, flag, "0.05"]) == 2
    assert capsys.readouterr().out == ""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 0.05\n")
    assert parse_and_dispatch([command, "--config", str(cfg)]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and f"unknown config key: {key}" in cap.err


def test_fixed_values_pass_the_checks_their_options_had():
    # glue_lemma6 refused A < 0, FlowConfig a non-finite blowup_floor, the
    # curvature model a cutoff that is not positive
    assert testmetric.PADDING_A >= 0.0
    assert math.isfinite(flow.BLOWUP_FLOOR)
    assert isinstance(symfun.JACOBI_MAX_SWEEPS, int) and symfun.JACOBI_MAX_SWEEPS > 0
    assert testmetric.CUT_RADIUS > 0.0 and testmetric.CUT_WIDTH > 0.0
    # the derived eps margin keeps _TransitionCore's 2 - 5 eps > gamma
    for gamma in (1.0 + 1e-9, 1.05, 1.5, 2.0 - 1e-9):
        assert 0.0 < testmetric._eps_margin(gamma) < (2.0 - gamma) / 5.0

