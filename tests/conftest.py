"""Fixtures shared across the test modules."""

from collections import Counter

import numpy as np
import pytest

from spectral_tsp import bounds, linalg


@pytest.fixture
def calls(monkeypatch):
    """Count the expensive steps a report takes, by kind."""
    import scipy.optimize

    counts = Counter()

    def count(kind, owners, name):
        original = getattr(owners[0], name)

        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return original(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, name, wrapper)

    count("eigensolve", [np.linalg], "eigvalsh")
    count("eigensolve", [np.linalg], "eigh")
    count("compression", [linalg, bounds], "center_restrict")
    count("validation", [bounds], "check_distance_matrix")
    count("as_square", [linalg, bounds], "as_square")
    count("lsap", [scipy.optimize], "linear_sum_assignment")
    return counts
