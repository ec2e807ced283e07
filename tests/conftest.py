import os
import random
from pathlib import Path

import pytest

from natprod import Matrix, Q

# `python -m natprod` children import the package from this working tree too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def row(values, domain=Q):
    return Matrix.from_rows([list(values)], domain)


def col(values, domain=Q):
    return Matrix.from_rows([[v] for v in values], domain)


def sq(rows, domain=Q):
    return Matrix.from_rows(rows, domain)


@pytest.fixture
def rng():
    return random.Random(0)
