import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import merge_planner

MODULES = sorted(info.name for info in pkgutil.iter_modules(merge_planner.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"merge_planner.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], f"merge_planner.{name}.__all__ names undefined {missing}"


def test_star_import():
    namespace: dict = {}
    exec("from merge_planner import *", namespace)
    assert "pareto_dp" in namespace and "compose_expand" in namespace


def test_traced_names_resolve():
    # the benchmark's tracer wraps these by name; a deleted or renamed one breaks tracing
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = []
    for mod_name, qualname, _ in tracing.TARGETS:
        owner = importlib.import_module(f"merge_planner.{mod_name}")
        for attr in qualname.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{qualname}")
    assert missing == [], f"perfbench/tracing.py traces undefined {missing}"


# the writer of the documented Schedule CSV format, which no command writes
_UNREACHED_BY_DESIGN = {"write_schedule_csv"}
_EXPORT_LISTS = re.compile(
    r"__all__ = \[.*?\]|from (?:\.|merge_planner)[\w.]* import (?:\([^)]*\)|[^\n]*)", re.S
)


def test_public_names_are_reached():
    # every exported name is used by the library, a demo or the benchmark,
    # outside its own def/class line, the __all__ lists and the imports
    root = Path(__file__).resolve().parents[1]
    text = "\n".join(
        _EXPORT_LISTS.sub("", path.read_text(encoding="utf-8"))
        for folder in ("src", "demos", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    )
    unreached = [
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(f"merge_planner.{name}"), "__all__", ())
        if attr not in _UNREACHED_BY_DESIGN
        and not re.search(rf"(?<!def )(?<!class )\b{attr}\b", text)
    ]
    assert unreached == [], f"no command, demo or benchmark uses {unreached}"


def _value_instances():
    gmm, linear_op, pareto_dp, schedule = (
        importlib.import_module(f"merge_planner.{name}")
        for name in ("gmm", "linear_op", "pareto_dp", "schedule")
    )
    sched = schedule.make_cosine_schedule(4)
    data = linear_op.DiagGaussian([2.0, 0.5])
    mixture = gmm.make_circle_mixture(4)
    steps = (gmm.single_step_moe(mixture, sched, 2), gmm.single_step_moe(mixture, sched, 1))
    return {
        "NoiseSchedule": lambda: schedule.make_cosine_schedule(4),
        "DiagGaussian": lambda: linear_op.DiagGaussian([2.0, 0.5]),
        "DiagOperator": lambda: linear_op.DiagOperator(entries=[0.5, 0.2], interval=(1, 2)),
        "ShrinkageProfile": lambda: linear_op.shrinkage(sched, data, 1.0),
        "PreferenceVector": lambda: pareto_dp.PreferenceVector([1.0, -1.0]),
        "ContractionReport": lambda: linear_op.contraction_certificate(sched, data),
        "GaussianMixture": lambda: gmm.make_circle_mixture(4),
        "PosteriorGating": lambda: gmm.PosteriorGating(gmm=mixture, sched=sched, t=2),
        "NoisySampler": lambda: gmm.NoisySampler(gmm=mixture, sched=sched, t=2),
        "PathGating": lambda: gmm.PathGating(ops=steps),
        "PathGating-membership": lambda: gmm.PathGating(ops=steps, membership=np.ones((16, 1))),
    }


@pytest.mark.parametrize("name", sorted(_value_instances()))
def test_value_classes_compare_and_hash_by_identity(name):
    make = _value_instances()[name]
    a, b = make(), make()  # equal contents, distinct objects
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
