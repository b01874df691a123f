"""Package surface: exported names, and the attributes perfbench's traced pass wraps."""

import ast
import importlib
from pathlib import Path

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


MODULES = ["lilbound"] + [
    f"lilbound.{name}"
    for name in ("cli", "constants", "entropy_ct", "envelopes", "grid_spaces", "lil_bounds", "partitions", "simulate")
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_every_package_export_is_in_its_module_all():
    tree = ast.parse(Path(lilbound.__file__).read_text())
    imported, missing = set(), []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod_all = importlib.import_module(f"lilbound.{node.module}").__all__
            names = [a.name for a in node.names]
            imported.update(names)
            missing += [f"{node.module}.{name}" for name in names if name not in mod_all]
    assert missing == []
    assert set(lilbound.__all__) - {"__version__"} <= imported


@pytest.mark.parametrize("path", sorted(Path(lilbound.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_src_has_no_unused_import(path):
    # no linter is installed; this is its F401 check.  An import counts as
    # used when its name is read anywhere in the module or listed in __all__.
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)
    assert unused == []


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
    assert calls["log_g"] == calls["tail"]  # one exact g at each refined tail's interpolated argmin


def test_nu_envelope_goes_through_the_traced_nu_p(monkeypatch):
    # perfbench counts entropy_ct.nu_p calls by wrapping the module attribute;
    # an envelope build that bypassed it would read as zero work.
    import numpy as np

    from lilbound import entropy_ct

    calls = []
    nu_p = entropy_ct.nu_p

    def counted_nu_p(source, p, Z, covering=None, theta_grid=None):
        calls.append(Z)
        return nu_p(source, p, Z, covering, theta_grid)

    monkeypatch.setattr(entropy_ct, "nu_p", counted_nu_p)
    q = 0.4
    v1 = np.array([[0.1, -0.2, 0.3], [0.2, 0.05, -0.1]])
    field = lilbound.IndexedField(
        lilbound.GridMeasureSpace(np.array([0.5, 0.5])),
        np.array([q, 1.0 - q]),
        np.stack([v1, -v1 * q / (1.0 - q)], axis=-1),
    )
    Z_grid = [1.0, 1.5, 2.0, 3.0]
    lilbound.nu_envelope(field, 2.0, Z_grid)
    assert calls == Z_grid


def test_import_does_not_load_scipy_stats():
    # scipy.stats and scipy.optimize each cost most of a second to import;
    # the package needs neither (tail conversion refines in closed form).
    # scipy.special costs a third of a second and only clopper_pearson_upper
    # needs it, so it is imported there.
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(lilbound.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, lilbound; print(sorted({'scipy.stats', 'scipy.optimize', 'scipy.special'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
