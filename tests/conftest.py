import os
from pathlib import Path

import pytest

from epelab import EnsembleSpec, ProblemInstance, generate_instance

# pyproject.toml puts src/ on this process's path; the CLI tests start
# `python -m epelab.cli` in subprocesses, which need it on PYTHONPATH.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def instance_from(alpha, cost, Q, supergraph=None):
    return ProblemInstance.from_arrays(alpha, cost, Q, supergraph)


@pytest.fixture
def point_mass():
    # Single absorbing state: v = c exactly.
    return instance_from(0.5, [1.0], [[1.0]])


@pytest.fixture
def two_cycle():
    # Two states swapping deterministically; v = [2/3, 1/3] at alpha = 0.5.
    return instance_from(0.5, [1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])


def random_instance(S, p, alpha, seed, cost_model="mixed", H=None):
    spec = EnsembleSpec(S=S, p=p, alpha=alpha, cost_model=cost_model, H=H)
    return generate_instance(spec, seed)
