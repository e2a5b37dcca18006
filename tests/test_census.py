"""The reachability census's allowlist stays in step with ``src/``.

``benchmarks/census.py`` runs every user path (about a minute) and fails
on any unreached function outside its allowlist; the smoke job runs it.
These checks are the part that needs no user path: every allowlisted
name is still defined and carries a reason.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census", ROOT / "benchmarks" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def definitions(census):
    return census.definitions()


@pytest.fixture(scope="module")
def defined_names(definitions):
    return [name for name, _ in definitions[0].values()]


def test_every_allowlisted_name_is_defined(census, defined_names):
    assert census.missing_entries(defined_names) == []


def test_no_class_body_alias_outside_the_allowlist(census, definitions):
    """One operation, one name: ``alias = method`` in a class body is a
    finding unless the allowlist gives it a reason."""
    assert census.unlisted_aliases(definitions[3]) == []


def test_every_allowlisted_name_has_a_reason(census):
    assert all(reason.strip() for reason in census.ALLOWLIST.values())


def test_census_counts_methods_and_nested_functions(census, defined_names):
    assert "repro.core.atomic_object:AtomicObject.read" in defined_names
    assert any(".<locals>." in name for name in defined_names)



def test_census_keys_a_function_as_its_code_object_does(definitions):
    from repro.bench.figures import figure7
    from repro.runtime.config import NetworkType

    functions = definitions[0]
    for function, name in ((NetworkType.parse.__func__, "repro.runtime.config:NetworkType.parse"),
                           (figure7, "repro.bench.figures:figure7")):
        code = function.__code__
        assert functions[(code.co_filename, code.co_firstlineno, code.co_name)][0] == name


@pytest.fixture(scope="module")
def parameter_names(census, definitions):
    return census.parameter_names(*definitions[1:3])


def test_every_allowlisted_parameter_is_defined(census, parameter_names):
    assert census.missing_param_entries(parameter_names) == []


def test_every_allowlisted_parameter_has_a_reason(census):
    assert all(reason.strip() for reason in census.PARAM_ALLOWLIST.values())


def test_parameter_census_names_defaults_and_fields(parameter_names):
    assert "repro.runtime.runtime:Runtime.run(locale)" in parameter_names
    assert "repro.runtime.config:RuntimeConfig.policy" in parameter_names
    # A required parameter, or a field __init__ does not take, is no setting.
    assert "repro.bench.report:Panel.title" not in parameter_names
    assert "repro.bench.report:Panel.series" not in parameter_names


def _profiled(census, definitions, run):
    """The parameter census of the calls ``run`` makes."""
    import sys

    params = census.ParamWatch(*definitions[1:3])
    sys.setprofile(census.profiler(set(), params))
    try:
        run()
    finally:
        sys.setprofile(None)
    return params


def test_profiler_sees_which_defaults_a_call_varies(census, definitions):
    from repro.runtime import Runtime, RuntimeConfig

    def run():
        with Runtime(config=RuntimeConfig(num_locales=2, seed=7)) as rt:
            rt.run(lambda: None)

    params = _profiled(census, definitions, run)
    config = "repro.runtime.config:RuntimeConfig."
    assert {config + "num_locales", config + "seed"} <= params.varied
    assert config + "policy" in params.censused - params.varied
    assert "repro.runtime.runtime:Runtime.run(locale)" in params.censused - params.varied


def test_a_default_spelled_another_way_is_no_variation(census, definitions):
    from repro.runtime import Runtime

    def run():
        with Runtime(network="ugni"):
            pass

    params = _profiled(census, definitions, run)
    network = "repro.runtime.runtime:Runtime.__init__(network)"
    assert network in params.censused - params.varied
    assert census._is_default(1.0, 1) and census._is_default([1, 2], (1, 2))
    assert not census._is_default(True, 1) and not census._is_default(0, False)
