"""The package's immutable records: construction, equality, hashing, text,
immutability, copying and validation, one case per record type."""

import copy
import pickle

import pytest

from qdriftlab import channels, compiler, phase_estimation as pe, trotter, weights
from qdriftlab.channels import BoundRow, CompositionTrial
from qdriftlab.compiler import CircuitMeta
from qdriftlab.trotter import CostQuery, CostReport, Method
from qdriftlab.weights import HamiltonianError, Record, WeightProfile

PROFILE = WeightProfile(2, 1.0, 0.5)
ROW = pe.BitRow(1, 6.283185307179586, 0.025, 394.7841760435743)

# (class, field values, count of required arguments (the rest are the
# defaults), another valid last field, text, (bad arguments, error, message)).
CASES = [
    (WeightProfile, (2, 1.0, 0.5), 3, 0.75, "WeightProfile(L=2, lam=1.0, lam_max=0.5)",
     ((2, 1.0, 2.0), HamiltonianError, "lam_max=2.0 exceeds lam=1.0")),
    (Method, ("trotter", "det", 0), 1, 1, "Method(family='trotter', variant='det', k=0)",
     (("suzuki", "det", 4), ValueError, "suzuki k must be in (1, 2, 3), got 4")),
    (CostQuery, (PROFILE, 1.0, 1e-3), 3, 2e-3,
     "CostQuery(profile=WeightProfile(L=2, lam=1.0, lam_max=0.5), t=1.0, eps=0.001)",
     ((PROFILE, 0.0, 1e-3), ValueError, "t must be finite and > 0, got 0.0")),
    (CostReport, (Method("qdrift", "", 0), None, 2002, 9.99e-4), 4, 1e-3,
     "CostReport(method=Method(family='qdrift', variant='', k=0), r=None, gates=2002, bound=0.000999)",
     None),
    (pe.PEQuery, (1.0, 1e-3, 0.1, 1, 1.0), 3, 0.5, "PEQuery(lam=1.0, delta_E=0.001, P_f=0.1, L=1, lam_max=1.0)",
     ((1.0, 2.0, 0.1), ValueError, "delta_E=2.0 exceeds lam=1.0")),
    (pe.PEPlan, ("qdrift", 0.05, 0.025, 1, (ROW,), 394.7841760435743), 6, 400.0,
     "PEPlan(method='qdrift', p_f=0.05, eps_tot=0.025, m=1, "
     "rows=(BitRow(j=1, t_j=6.283185307179586, eps_j=0.025, gates=394.7841760435743),), total=394.7841760435743)",
     None),
    (pe.PfOptimum, ("trotter", 0.07, 0.015, 1e6, 0.075, 1.1e6), 6, 1.2e6,
     "PfOptimum(method='trotter', p_f=0.07, eps_tot=0.015, total=1000000.0, "
     "p_f_small_limit=0.075, total_at_small_limit=1100000.0)",
     None),
    (pe.SpeedupReport, (2.5, 3.0), 2, 3.5, "SpeedupReport(closed_ratio=2.5, pipeline_ratio=3.0)", None),
    (CircuitMeta, (7, 100, 1.0, 1e-3, 2.0, "exact", False), 6, True,
     "CircuitMeta(seed=7, N=100, t=1.0, eps=0.001, lam=2.0, mode='exact', controlled=False)",
     None),
    (BoundRow, (10, 1e-4, 2e-4), 3, 3e-4, "BoundRow(N=10, d_lower=0.0001, bound=0.0002)", None),
    (CompositionTrial, (0, 1e-5, 1e-4, 2e-5, 2e-4), 5, 3e-4,
     "CompositionTrial(index=0, d_tr=1e-05, budget=0.0001, expval_err=2e-05, expval_cap=0.0002)",
     None),
]


def test_every_record_type_has_a_case():
    found = {
        value
        for module in (channels, compiler, pe, trotter, weights)
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Record) and value is not Record
    }
    assert found == {case[0] for case in CASES}
    assert len(CASES) == 11


@pytest.mark.parametrize("cls, values, required, last, text, bad", CASES, ids=[case[0].__name__ for case in CASES])
def test_record_behaves_as_a_frozen_dataclass(cls, values, required, last, text, bad):
    record = cls(*values)
    # Positional, keyword and defaulted construction give equal records.
    assert cls(**dict(zip(cls.__slots__, values))) == record
    assert cls(*values[:required]) == record
    # Equality and hash go by class and fields.
    assert hash(record) == hash(cls(*values)) == hash(values)
    assert record != values
    assert record != cls(*values[:-1], last)
    subclass = type("Sub", (cls,), {"__slots__": ()})
    assert subclass(*values) != record and record != subclass(*values)
    assert repr(record) == text
    # Immutable.
    name = cls.__slots__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    # Copies are equal records of the same class.
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record
    # Validation messages are unchanged.
    if bad is not None:
        args, error, message = bad
        with pytest.raises(error) as info:
            cls(*args)
        assert str(info.value) == message
