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
def defined_names(census):
    return [name for name, _ in census.defined_functions().values()]


def test_every_allowlisted_name_is_defined(census, defined_names):
    assert census.missing_entries(defined_names) == []


def test_every_allowlisted_name_has_a_reason(census):
    assert all(reason.strip() for reason in census.ALLOWLIST.values())


def test_census_counts_methods_and_nested_functions(census, defined_names):
    assert "repro.core.atomic_object:AtomicObject.read" in defined_names
    assert any(".<locals>." in name for name in defined_names)

