"""Package surface: exported names, and the attributes perfbench's traced pass wraps."""

import importlib

import pytest

import lilbound

# (module, attribute path) pairs that perfbench/run.py wraps by name; a
# cleanup that drops one would otherwise fail only inside perfbench/selftest.py
TRACED = [
    ("lilbound.simulate", "rosenthal_upper"),
    ("lilbound.simulate", "mixed_norm"),
    ("lilbound.lil_bounds", "tail_from_envelope"),
    ("lilbound.envelopes", "MomentEnvelope.log_g"),
    ("lilbound.partitions", "NormingSequence.__call__"),
    ("lilbound.entropy_ct", "nu_p"),
    ("lilbound.cli", "evaluate_bound_curve"),
]


@pytest.mark.parametrize("module,path", TRACED)
def test_traced_attributes_resolve(module, path):
    obj = importlib.import_module(module)
    for name in path.split("."):
        obj = getattr(obj, name)
    assert callable(obj)


def test_every_exported_name_resolves():
    missing = [name for name in lilbound.__all__ if not hasattr(lilbound, name)]
    assert missing == []
