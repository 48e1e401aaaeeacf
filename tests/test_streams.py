import math

import numpy as np
import scipy.stats

from qsdlab import _kernels as k
from qsdlab import substream


def test_same_address_same_draws():
    a = substream(123, 5, 7)
    b = substream(123, 5, 7)
    assert [a.u01() for _ in range(20)] == [b.u01() for _ in range(20)]


def test_distinct_addresses_decorrelated():
    xs = np.array([substream(1, 0, i).u01() for i in range(4000)])
    ys = np.array([substream(1, 1, i).u01() for i in range(4000)])
    assert abs(xs.mean() - 0.5) < 0.025
    assert abs(np.corrcoef(xs, ys)[0, 1]) < 0.05


def test_uniform_law():
    s = substream(42, 0, 0)
    u = np.array([s.u01() for _ in range(20000)])
    assert np.all((0.0 <= u) & (u < 1.0))
    _, p = scipy.stats.kstest(u, "uniform")
    assert p > 1e-4


def test_normal_law():
    s = substream(43, 0, 0)
    z = np.array([s.normal() for _ in range(20000)])
    _, p = scipy.stats.kstest(z, "norm")
    assert p > 1e-4


def test_normal_consumes_two_counters():
    s = substream(5, 1, 2)
    s.normal()
    assert s.counter == 2
    s.u01()
    assert s.counter == 3


def test_poisson_law():
    s = substream(44, 0, 0)
    mean = 2.5
    draws = np.array([s.poisson(mean) for _ in range(20000)])
    assert abs(draws.mean() - mean) < 3 * math.sqrt(mean / draws.size) + 1e-9
    assert abs(draws.var() - mean) < 0.1
    assert s.poisson(0.0) == 0


def test_pick_range_and_uniformity():
    s = substream(45, 0, 0)
    picks = np.array([s.pick(7) for _ in range(14000)])
    assert picks.min() == 0 and picks.max() == 6
    counts = np.bincount(picks, minlength=7) / picks.size
    assert np.abs(counts - 1 / 7).max() < 0.02


def test_vectorized_keys_match_scalar():
    pid = np.arange(50, dtype=np.uint64)
    keys = k.derive_keys_np(99, 3, pid)
    expect = np.array([k.derive_key(99, 3, i) for i in range(50)], dtype=np.uint64)
    assert np.array_equal(keys, expect)


def test_batched_keys_match_scalar():
    # replica-major: every particle of replica 0, then of replica 1, ...
    seeds = np.array([0, 99, 2 ** 64 - 1], dtype=np.uint64)
    bases = k.replica_bases(seeds, 5, 3)
    for counts in ([7, 7, 7], [7, 2, 5]):
        for s in range(3):
            keys = k.batch_keys(bases[s], k.replica_layout(counts))
            expect = [k.derive_key(int(seed), 5 + s, i)
                      for seed, n in zip(seeds, counts) for i in range(n)]
            assert np.array_equal(keys, np.array(expect, dtype=np.uint64))


def test_vectorized_draws_match_scalar():
    pid = np.arange(2000, dtype=np.uint64)
    keys = k.derive_keys_np(7, 2, pid)
    ctrs = pid % np.uint64(16)
    vec = k._u01_np(keys, ctrs)
    sca = np.array([k.u01_from_raw(k.raw_draw(int(keys[i]), int(ctrs[i])))
                    for i in range(pid.size)])
    assert np.array_equal(vec, sca)
    vecn = k._normal_np(keys, ctrs)
    scan = np.array([k.Stream(int(keys[i]), int(ctrs[i])).normal()
                     for i in range(pid.size)])
    assert np.array_equal(vecn, scan)
