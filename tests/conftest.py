import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bayesfuse import Dataset


def random_instance(rng: np.random.Generator, n: int, p: int, scale: float = 1.0):
    """Small full-rank regression instance with centered columns."""
    X = rng.standard_normal((n, p))
    X -= X.mean(axis=0)
    beta = rng.standard_normal(p)
    y = X @ beta + scale * rng.standard_normal(n)
    y -= y.mean()
    return y, X


def sparse_instance(seed: int = 3, n: int = 60, p: int = 15) -> Dataset:
    """Three true predictors among p, so the chain keeps adding and dropping."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X -= X.mean(axis=0)
    beta = np.zeros(p)
    beta[[1, 4, p // 2 + 2]] = [1.5, -1.0, 0.7]
    y = X @ beta + rng.standard_normal(n)
    return Dataset(y=y - y.mean(), X=X)


def write_regression_csv(path, seed=0, n=40, p=4):
    """CSV table x0, ..., y whose coefficients form two fused pairs."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.array([1.0, 1.0, -2.0, -2.0])[:p]
    y = X @ beta + 0.3 * rng.standard_normal(n)
    header = ",".join([f"x{j}" for j in range(p)] + ["y"])
    rows = [",".join(map(str, list(X[i]) + [y[i]])) for i in range(n)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


@pytest.fixture
def toy_data():
    rng = np.random.default_rng(7)
    y, X = random_instance(rng, 40, 5)
    data = Dataset(y=y, X=X, standardized=False)
    data.validate()
    return data
