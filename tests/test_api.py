"""The public surface: what ``import ptrig`` exports, and that every module's
``__all__`` names something that exists.  Removing a public name means
editing PUBLIC below on purpose.  Also the contract of the five immutable
records, and what a fresh ``import ptrig.cli`` leaves unloaded."""

import copy
import importlib
import inspect
import math
import pickle
import subprocess
import sys

import pytest

import ptrig
from ptrig import numerics
from ptrig.inequalities import GridPoint

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


def test_numerics_exports_no_quadrature():
    # integrate is internal: core's arsinh_p is its one caller.  There is one
    # precision, so no Tolerance either.
    assert sorted(numerics.__all__) == ["Evaluation", "NonConvergence", "NumericsError"]
    for name in ("InvalidInterval", "DEFAULT_TOLERANCE", "Tolerance"):
        assert not hasattr(numerics, name), name


@pytest.mark.parametrize("module", ["ptrig", "ptrig.core", "ptrig.inequalities",
                                    "ptrig.numerics", "ptrig.series"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing


def test_import_loads_no_dataclasses_inspect_or_numpy():
    # Every verify runs in a fresh process that pays for these imports first.
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "numpy"]
    script = f"import sys, ptrig.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_POINT = GridPoint(0.5, (1.0, 2.0), 3e-9)
# Each record with two sets of field values, and the repr of the first.
RECORDS = [
    (ptrig.Evaluation, (1.5, 2e-16), (1.5, 3e-16), "Evaluation(value=1.5, abs_err=2e-16)"),
    (ptrig.GridSpec, (50, "log", 1e-3, 2e-3), (50, "log", 1e-3, 3e-3),
     "GridSpec(n=50, spacing='log', left_offset=0.001, right_offset=0.002)"),
    (GridPoint, (0.5, (1.0, 2.0), 3e-9), (0.5, (1.0, 2.5), 3e-9),
     "GridPoint(x=0.5, values=(1.0, 2.0), margin=3e-09)"),
    (ptrig.VerificationReport, ("THM1_CHAIN", 3.0, (_POINT,), 3e-9, "not_checked", True, 1e-12),
     ("THM1_CHAIN", 3.0, (), 3e-9, "not_checked", True, 1e-12),
     "VerificationReport(claim='THM1_CHAIN', p=3.0, points=(GridPoint(x=0.5, values=(1.0, 2.0),"
     " margin=3e-09),), min_margin=3e-09, monotone_verdict='not_checked', passed=True,"
     " error_budget=1e-12)"),
    (ptrig.SharpConstants, (0.25, 0.44, 3.0), (0.25, 0.45, 3.0),
     "SharpConstants(alpha=0.25, beta=0.44, p=3.0)"),
]
RECORD_IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls,args,other,text", RECORDS, ids=RECORD_IDS)
class TestRecords:
    def test_equal_and_hash_by_value(self, cls, args, other, text):
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != cls(*other)
        assert a != args and a != ptrig.Evaluation(1.0, 0.0)
        assert len({a, b, cls(*other)}) == 2

    def test_keywords_and_arity(self, cls, args, other, text):
        names = inspect.signature(cls).parameters
        assert cls(**dict(zip(names, args))) == cls(*args)
        with pytest.raises(TypeError):
            cls(*args, None)
        with pytest.raises(TypeError):
            cls(*args, unknown=None)
        if cls is not ptrig.GridSpec:  # the only one with defaults
            with pytest.raises(TypeError):
                cls(*args[:-1])

    def test_fields_are_read_only(self, cls, args, other, text):
        a = cls(*args)
        for name in inspect.signature(cls).parameters:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = None
        assert a == cls(*args)

    def test_pickle_and_copy_round_trip(self, cls, args, other, text):
        a = cls(*args)
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert type(b) is cls and b == a and hash(b) == hash(a)

    def test_repr(self, cls, args, other, text):
        assert repr(cls(*args)) == text


@pytest.mark.parametrize("make", [
    lambda: ptrig.Evaluation(math.nan, 0.0),
    lambda: ptrig.Evaluation(-math.inf, 0.0),
    lambda: ptrig.Evaluation(1.0, -1e-16),
    lambda: ptrig.Evaluation(1.0, math.inf),
    lambda: ptrig.Evaluation(1.0, math.nan),
    lambda: ptrig.Evaluation(math.inf, 0.0),
    lambda: ptrig.GridSpec(n=2),
    lambda: ptrig.GridSpec(n=True),
    lambda: ptrig.GridSpec(n=50.0),
    lambda: ptrig.GridSpec(spacing="chebyshev"),
    lambda: ptrig.GridSpec(left_offset=1e-5),
    lambda: ptrig.GridSpec(right_offset=math.nan),
    lambda: ptrig.GridSpec(right_offset="0.1"),
    lambda: ptrig.GridSpec(left_offset=0.5, right_offset=0.5),
    lambda: ptrig.SharpConstants(0.5, 0.4, 2.0),
    lambda: ptrig.SharpConstants(0.25, 1.0, 3.0),
])
def test_records_reject_invalid_fields(make):
    with pytest.raises(ValueError):
        make()
