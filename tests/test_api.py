"""The public surface: what ``import ptrig`` exports, and that every module's
``__all__`` names something that exists.  Removing a public name means
editing PUBLIC below on purpose."""

import dataclasses
import importlib

import pytest

import ptrig
from ptrig import numerics

PUBLIC = {
    "DomainError",
    "Evaluation",
    "EvaluationFailed",
    "FunctionId",
    "GridSpec",
    "NonConvergence",
    "NumericsError",
    "PoleError",
    "SharpConstants",
    "Tolerance",
    "VerificationReport",
    "arcsin_p",
    "arsinh_p",
    "cos_p",
    "cosh_p",
    "d_cos_p",
    "d_cosh_p",
    "d_sin_p",
    "d_sinh_p",
    "d_tanh_p",
    "grid_points",
    "is_exploratory",
    "lem22_f",
    "lem23_g",
    "lem24_gap",
    "pi_p",
    "sharp_constants",
    "sin_p",
    "sinh_p",
    "tan_p",
    "tanh_p",
    "thm1_f",
    "thm2_g",
    "verify_claim",
    "__version__",
}


def test_ptrig_exports_exactly_the_public_set():
    assert len(ptrig.__all__) == len(set(ptrig.__all__))
    assert set(ptrig.__all__) == PUBLIC


def test_tolerance_is_two_targets():
    # No iteration cap: the Newton loops keep their own, and the quadrature its levels.
    assert [f.name for f in dataclasses.fields(ptrig.Tolerance)] == ["abs_tol", "rel_tol"]


@pytest.mark.parametrize("kwargs", [{}, {"abs_tol": 1e-8}])
def test_tolerance_has_no_defaults(kwargs):
    # The library default is tol=None, the CLI's is --tol; a third would go unused.
    with pytest.raises(TypeError):
        ptrig.Tolerance(**kwargs)


def test_numerics_exports_no_quadrature():
    # integrate is internal: core's arsinh_p is its one caller.
    assert sorted(numerics.__all__) == ["Evaluation", "NonConvergence", "NumericsError", "Tolerance"]
    assert not hasattr(numerics, "InvalidInterval")
    assert not hasattr(numerics, "DEFAULT_TOLERANCE")


@pytest.mark.parametrize("module", ["ptrig", "ptrig.core", "ptrig.inequalities",
                                    "ptrig.numerics", "ptrig.series"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
