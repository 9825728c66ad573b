import importlib
import pkgutil

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


def _value_instances():
    gmm, linear_op, pareto_dp, schedule = (
        importlib.import_module(f"merge_planner.{name}")
        for name in ("gmm", "linear_op", "pareto_dp", "schedule")
    )
    sched = schedule.make_cosine_schedule(4)
    data = linear_op.DiagGaussian([2.0, 0.5])
    mixture = gmm.make_circle_mixture(4)
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
    }


@pytest.mark.parametrize("name", sorted(_value_instances()))
def test_value_classes_compare_and_hash_by_identity(name):
    make = _value_instances()[name]
    a, b = make(), make()  # equal contents, distinct objects
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
