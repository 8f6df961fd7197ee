"""Spectral lower bounds for travelling salesman tours.

The bound compresses the negated distance matrix onto the mean-zero
subspace and pairs its eigenvalues against the spectrum of a tour cycle;
the result lower-bounds the length of every closed tour.  Applied to
graphs (via the complement adjacency or hop-distance matrices) the same
quantity yields computable necessary conditions for Hamiltonicity.

Import surface: the bound family lives in `bounds`, eigenstructure
helpers in `linalg`, exact and heuristic solvers in `solvers`, instance
generators in `instances`, graph screens in `graphs`, and the problem
file reader in `tsplib`.  The most used names are resolved here on first
use (PEP 562), so importing the package loads none of those modules, and
each lookup reads the module's current attribute.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it, in the order of __all__
_HOMES = {
    "BoundReport": "bounds",
    "Graph": "graphs",
    "SpectralTspError": "errors",
    "Tour": "solvers",
    "bound_report": "bounds",
    "brute_force": "solvers",
    "center_restrict": "linalg",
    "distance_hamiltonian_screen": "graphs",
    "euclidean_floor": "bounds",
    "hamiltonian_screen": "graphs",
    "held_karp": "solvers",
    "householder_basis": "linalg",
    "load_tsplib": "tsplib",
    "load_with_optimum": "tsplib",
    "mean_distance": "bounds",
    "n2_bound": "bounds",
    "parse_tsplib": "tsplib",
    "phi_general": "bounds",
    "phi_normal": "bounds",
    "phi_symmetric": "bounds",
    "schoenberg_edm_check": "bounds",
    "tour_length": "solvers",
    "tsp_coefficients": "bounds",
    "traceable_screen": "graphs",
    "two_opt": "solvers",
}
__all__ = list(_HOMES)


def __getattr__(name: str):
    # relative, so a tree loaded under another package name resolves its own modules;
    # not cached here, so a patched module attribute shows through the package too
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
