"""Fixtures shared across the test modules."""

from collections import Counter

import numpy as np
import pytest

from spectral_tsp import bounds, linalg


@pytest.fixture
def calls(monkeypatch):
    """Count the expensive steps a report takes, by kind."""
    counts = Counter()

    def counted(kind, original):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return original(*args, **kwargs)

        return wrapper

    def count(kind, owners, name):
        wrapper = counted(kind, getattr(owners[0], name))
        for owner in owners:
            monkeypatch.setattr(owner, name, wrapper)

    # one reduction per symmetric matrix feeds both of its solves; numpy's solvers run only
    # where the kernel is missing, and each of their calls is an eigensolve of its own
    count("eigensolve", [linalg, bounds], "tridiagonal")
    count("eigensolve", [np.linalg], "eigvalsh")
    count("eigensolve", [np.linalg], "eigh")
    count("compression", [linalg, bounds], "center_restrict")
    count("parts_commute", [linalg, bounds], "parts_commute")
    count("validation", [bounds], "check_distance_matrix")
    count("as_square", [linalg, bounds], "as_square")
    count("pairing", [bounds], "tsp_coefficients")  # the cosine pairing's coefficients
    # bounds gets scipy's assignment solver from its cached loader
    lsap = counted("lsap", bounds._assignment_solver())
    monkeypatch.setattr(bounds, "_assignment_solver", lambda: lsap)
    return counts
