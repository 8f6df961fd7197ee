"""The package's public surface: what it exports, and what it no longer does.

Each quantity has one route inside the package; a second route that only a
test used lives in tests/oracles.py instead.  The names below were such
second routes and must not come back.
"""

import importlib
import inspect

import pytest

import spectral_tsp
from spectral_tsp import bounds, graphs, solvers

REMOVED = [
    ("spectral_tsp", "antisym_spectrum"),
    ("spectral_tsp", "is_normal"),
    ("spectral_tsp", "normal_complex_spectrum"),
    ("spectral_tsp", "sym_eigenvalues"),
    ("spectral_tsp.linalg", "antisym_spectrum"),
    ("spectral_tsp.linalg", "is_antisymmetric"),
    ("spectral_tsp.linalg", "is_normal"),
    ("spectral_tsp.linalg", "normal_complex_spectrum"),
    ("spectral_tsp.linalg", "sym_eigenvalues"),
    ("spectral_tsp.bounds", "restricted_spectrum"),
    ("spectral_tsp.errors", "NotAntisymmetric"),
    ("spectral_tsp.graphs", "is_hamiltonian"),
    ("spectral_tsp.graphs", "is_traceable"),
    ("spectral_tsp", "vn_trace_range"),
    ("spectral_tsp.linalg", "vn_trace_range"),
    ("spectral_tsp.linalg", "is_symmetric"),
    ("spectral_tsp.instances", "SplitMix64"),
    ("spectral_tsp.graphs", "complement"),
    ("spectral_tsp.graphs", "disjoint_cliques"),
    ("spectral_tsp.graphs", "cyclic_group"),
    ("spectral_tsp.graphs", "GroupTable"),
    ("spectral_tsp.graphs", "dihedral_group"),
    ("spectral_tsp.graphs", "cayley_graph"),
    ("spectral_tsp.errors", "IdentityInConnectionSet"),
    ("spectral_tsp.errors", "NotInverseClosed"),
]


def test_every_exported_name_resolves():
    assert len(spectral_tsp.__all__) == len(set(spectral_tsp.__all__))
    for name in spectral_tsp.__all__:
        assert getattr(spectral_tsp, name, None) is not None, name
    namespace = {}
    exec("from spectral_tsp import *", namespace)
    assert set(spectral_tsp.__all__) <= set(namespace)


def test_the_package_reads_each_name_from_its_module_at_every_lookup(monkeypatch):
    # nothing is cached in the package, so a patched module attribute shows through it
    # and is gone from it once the patch is undone
    patched = object()
    monkeypatch.setattr(bounds, "bound_report", patched)
    assert spectral_tsp.bound_report is patched
    monkeypatch.undo()
    assert spectral_tsp.bound_report is bounds.bound_report
    assert not set(spectral_tsp.__all__) & set(vars(spectral_tsp))
    assert set(spectral_tsp.__all__) <= set(dir(spectral_tsp))


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_name_cannot_be_imported(module, name):
    assert not hasattr(importlib.import_module(module), name)
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})


def test_removed_methods_and_parameters_stay_out():
    assert not hasattr(graphs.Graph, "edge_count")
    assert list(inspect.signature(bounds.check_distance_matrix).parameters) == ["D"]
    assert list(inspect.signature(solvers.held_karp).parameters) == ["D"]
    assert list(inspect.signature(solvers.brute_force).parameters) == ["D"]
    assert list(inspect.signature(solvers.two_opt).parameters) == ["D", "seed"]
    assert list(inspect.signature(bounds.mean_distance).parameters) == ["D"]
    assert list(inspect.signature(graphs.complement_phi).parameters) == ["g"]
    assert list(inspect.signature(graphs.distance_phi).parameters) == ["g"]
