import functools
import time

import numpy as np
import pytest

import qsdlab as q
from qsdlab.cli import main as cli_main
from qsdlab.metrics import EmpiricalMeasure
from qsdlab.oracle import grid_generator, killed_semigroup, perron_triplet, spectrum


@pytest.fixture(scope="session")
def interval_oracle():
    """Grid reference for the hard-killed interval: (chain, M, triplet),
    from ``spectrum`` as in ``qsdlab oracle``.  The 2000-cell grid takes
    the generator path, so M is None."""
    chain = grid_generator(q.IntervalBrownian(), 2000)
    m, trip = spectrum(chain, 0.06)
    assert m is None and trip.converged
    return chain, m, trip


@pytest.fixture(scope="session")
def interval_oracle_measure(interval_oracle):
    chain, _, trip = interval_oracle
    return EmpiricalMeasure(chain.positions, trip.gamma_left, space=q.Interval())


@pytest.fixture(scope="session")
def house_oracle():
    """Grid reference for the uniform-redraw model at c = q = 1."""
    chain = grid_generator(q.HouseOfCard(1.0, 1.0), 2000)
    m = killed_semigroup(chain, 1.0)
    trip = perron_triplet(m)
    assert trip.converged
    return chain, m, trip


@pytest.fixture(scope="session")
def noncommutation_demo(tmp_path_factory):
    """``run()`` -> (exit code, output directory) of ``qsdlab demo --name
    noncommutation`` at its default seed.  The demo takes about 100 s, so
    the first call runs it and later calls in the session reuse its output."""

    @functools.cache
    def run():
        out = tmp_path_factory.mktemp("noncommutation")
        return cli_main(["demo", "--name", "noncommutation",
                         "--output-dir", str(out)]), out

    return run


def random_chain(rng: np.random.Generator, n: int = 5,
                 kill_scale: float = 0.5) -> q.FiniteKilledChain:
    """Dense random chain with positive rates, for property tests."""
    rates = rng.uniform(0.2, 1.5, size=(n, n))
    np.fill_diagonal(rates, 0.0)
    kill = rng.uniform(0.0, kill_scale, size=n)
    return q.FiniteKilledChain(rates, kill)


class CriterionTimer:
    def __init__(self, name: str, budget_seconds: float):
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.name}: {status} ({elapsed:.1f}s, "
              f"budget {self.budget:.0f}s)")
        return False
