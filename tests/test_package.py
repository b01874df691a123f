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


def test_block_walk_goes_through_the_traced_names(monkeypatch):
    # perfbench counts tail conversions and g evaluations by wrapping these
    # module attributes; a walk that bypasses them would read as zero work.
    from lilbound import lil_bounds

    calls = {"tail": 0, "log_g": 0}
    tail, log_g = lil_bounds.tail_from_envelope, lilbound.MomentEnvelope.log_g

    def counted_tail(env, z):
        calls["tail"] += 1
        return tail(env, z)

    def counted_log_g(self, L):
        calls["log_g"] += 1
        return log_g(self, L)

    monkeypatch.setattr(lil_bounds, "tail_from_envelope", counted_tail)
    monkeypatch.setattr(lilbound.MomentEnvelope, "log_g", counted_log_g)
    env = lilbound.MomentEnvelope.from_callable(lambda L: L, domain_low=2.0)
    w = lilbound.max_admissible_w(2)
    result = lilbound.upper_bound(
        env, lilbound.geometric_partition(2), lilbound.NormingSequence.iterated_log(1.0), w, 40.0
    )
    assert calls["tail"] == min(result.terms, lil_bounds._REFINED_TERMS)
    assert calls["log_g"] > calls["tail"]
