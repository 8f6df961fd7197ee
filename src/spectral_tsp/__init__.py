"""Spectral lower bounds for travelling salesman tours.

The bound compresses the negated distance matrix onto the mean-zero
subspace and pairs its eigenvalues against the spectrum of a tour cycle;
the result lower-bounds the length of every closed tour.  Applied to
graphs (via the complement adjacency or hop-distance matrices) the same
quantity yields computable necessary conditions for Hamiltonicity.

Import surface: the bound family lives in `bounds`, eigenstructure
helpers in `linalg`, exact and heuristic solvers in `solvers`, instance
generators in `instances`, graph screens in `graphs`, and the problem
file reader in `tsplib`.  The most used names are re-exported here.
"""

from .bounds import (
    BoundReport,
    bound_report,
    euclidean_floor,
    mean_distance,
    n2_bound,
    phi_general,
    phi_normal,
    phi_symmetric,
    schoenberg_edm_check,
    tsp_coefficients,
)
from .errors import SpectralTspError
from .graphs import (
    Graph,
    distance_hamiltonian_screen,
    hamiltonian_screen,
    traceable_screen,
)
from .linalg import center_restrict, householder_basis
from .solvers import Tour, brute_force, held_karp, tour_length, two_opt
from .tsplib import load_tsplib, load_with_optimum, parse_tsplib

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Graph",
    "SpectralTspError",
    "Tour",
    "bound_report",
    "brute_force",
    "center_restrict",
    "distance_hamiltonian_screen",
    "euclidean_floor",
    "hamiltonian_screen",
    "held_karp",
    "householder_basis",
    "load_tsplib",
    "load_with_optimum",
    "mean_distance",
    "n2_bound",
    "parse_tsplib",
    "phi_general",
    "phi_normal",
    "phi_symmetric",
    "schoenberg_edm_check",
    "tour_length",
    "tsp_coefficients",
    "traceable_screen",
    "two_opt",
]
