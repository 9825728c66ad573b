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
