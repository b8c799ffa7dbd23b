"""Oracle: the stdlib race statistics against the numpy/scipy originals.

The two elimination functions below are the numpy/scipy implementations
the race used before :mod:`repro.tuning.stats` replaced them, kept
verbatim as the reference. The stdlib versions must eliminate exactly
the same candidates on seeded random cost matrices (ties and constant
rows included), the pairwise sum must be bit-identical to ``np.mean``
and the distribution functions must agree with scipy to 1e-10
relative. Skipped where numpy/scipy are not installed: the program
itself needs neither.
"""

from __future__ import annotations

import importlib
import random

import pytest

np = pytest.importorskip("numpy")
pytest.importorskip("scipy")
from scipy import stats  # noqa: E402

race_mod = importlib.import_module("repro.tuning.race")
from repro.tuning import stats as rstats  # noqa: E402

#: Cost matrices per elimination test; each sees every kind of input.
N_MATRICES = 2000
ALPHAS = (0.01, 0.05, 0.1)
RTOL = 1e-10


# --------------------------------------------------------------------
# Reference: the numpy/scipy elimination, verbatim.
# --------------------------------------------------------------------
def _friedman_eliminate(costs: np.ndarray, alive: list, alpha: float) -> list:
    """Conover post-hoc elimination; returns the indices to eliminate.

    ``costs`` is (n_alive, n_instances). Candidates whose rank sum
    exceeds the best's by more than the critical difference go.
    """
    k, b = costs.shape
    if k < 2 or b < 2:
        return []
    # Rank within each instance column (1 = best/lowest cost).
    ranks = np.apply_along_axis(stats.rankdata, 0, costs)
    rank_sums = ranks.sum(axis=1)
    a2 = float((ranks**2).sum())
    b2 = float((rank_sums**2).sum()) / b
    mean_term = b * k * (k + 1) ** 2 / 4.0
    numer = b2 - mean_term
    spread = a2 - b2
    df = (b - 1) * (k - 1)
    best = int(np.argmin(rank_sums))

    if spread <= 1e-9:
        if numer <= 1e-9:
            return []  # every candidate performs identically
        # Perfectly consistent rankings across all blocks: maximal
        # significance, the post-hoc critical difference degenerates to
        # zero — everything ranked behind the best is dominated.
        return [alive[i] for i in range(k) if i != best and rank_sums[i] > rank_sums[best]]

    # Conover's F-statistic for the Friedman test.
    t_stat = (k - 1) * numer / spread
    p_value = stats.f.sf(t_stat, k - 1, df)
    if p_value > alpha:
        return []
    critical = stats.t.ppf(1 - alpha / 2.0, df) * np.sqrt(2.0 * b * spread / df)
    out = []
    for i in range(k):
        if i != best and rank_sums[i] - rank_sums[best] > critical:
            out.append(alive[i])
    return out


def _ttest_eliminate(costs: np.ndarray, alive: list, alpha: float) -> list:
    """Paired t-test of each candidate against the best-mean candidate."""
    k, b = costs.shape
    if k < 2 or b < 2:
        return []
    means = costs.mean(axis=1)
    best = int(np.argmin(means))
    out = []
    for i in range(k):
        if i == best:
            continue
        diff = costs[i] - costs[best]
        if np.allclose(diff, 0):
            continue
        t_stat, p_two = stats.ttest_rel(costs[i], costs[best])
        # One-sided: candidate i is worse.
        if t_stat > 0 and p_two / 2.0 < alpha:
            out.append(alive[i])
    return out


# --------------------------------------------------------------------


def _matrix(rng: random.Random):
    """One race-shaped cost matrix: k candidates x b instances.

    Candidates differ by a random offset over shared per-instance
    difficulty plus noise. A third are rounded so that ranks tie, and
    some rows are constant or duplicate another row.
    """
    k = rng.randint(2, 14)
    b = rng.randint(2, 40)
    alpha = rng.choice(ALPHAS)
    offsets = [rng.gauss(0.0, rng.choice((0.01, 0.05, 0.2))) for _ in range(k)]
    hardness = [rng.uniform(0.5, 2.0) for _ in range(b)]
    sigma = rng.choice((0.01, 0.05, 0.2))
    rows = [[1.0 + offsets[i] + hardness[j] * rng.gauss(0.0, sigma)
             for j in range(b)] for i in range(k)]
    shape = rng.random()
    if shape < 1 / 3:
        digits = rng.choice((0, 1, 2))
        rows = [[round(c, digits) for c in row] for row in rows]
    elif shape < 0.45:
        rows[rng.randrange(k)] = [rng.choice((0.5, 1.0, 2.0))] * b
    elif shape < 0.5:
        rows[rng.randrange(k)] = list(rows[rng.randrange(k)])
    return rows, alpha


def _matrices(test: str):
    rng = random.Random(f"race-stats-oracle-{test}")
    return [_matrix(rng) for _ in range(N_MATRICES)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy, on constant differences
@pytest.mark.parametrize("test", ["friedman", "ttest"])
def test_elimination_matches_scipy_reference(test):
    ours = getattr(race_mod, f"_{test}_eliminate")
    reference = _friedman_eliminate if test == "friedman" else _ttest_eliminate
    mismatches = []
    eliminated = 0
    for n, (rows, alpha) in enumerate(_matrices(test)):
        alive = list(range(len(rows)))
        want = reference(np.array(rows), alive, alpha)
        got = ours(rows, alive, alpha)
        eliminated += len(want)
        if sorted(got) != sorted(want):
            mismatches.append((n, alpha, want, got))
    assert not mismatches, f"{len(mismatches)} decision mismatches, first: {mismatches[:3]}"
    # The matrices exercise elimination, not only the no-decision path.
    assert eliminated > N_MATRICES


def test_pairwise_sum_is_bit_identical_to_numpy_mean():
    rng = random.Random(7)
    for n in range(1, 301):
        for _ in range(10):
            scale = 10 ** rng.uniform(-6, 6)
            values = [rng.uniform(-1.0, 1.0) * scale for _ in range(n)]
            assert rstats.mean(values) == np.mean(np.array(values)), n
        # Rows of a 2-D array reduce in the same order (axis=1).
        matrix = np.array([values, values[::-1]])
        assert rstats.mean(values[::-1]) == matrix.mean(axis=1)[1], n


def test_average_ranks_match_rankdata():
    rng = random.Random(11)
    for _ in range(500):
        values = [round(rng.random(), rng.choice((0, 1, 2, 6))) for _ in range(rng.randint(1, 14))]
        assert rstats.average_ranks(values) == list(stats.rankdata(values)), values


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= RTOL * abs(want)


def test_f_survival_function_matches_scipy():
    rng = random.Random(13)
    bad = []
    for dfn in range(1, 14):
        for b in range(2, 41):
            dfd = dfn * (b - 1)
            for _ in range(3):
                f = 10 ** rng.uniform(-3, 1.5)
                want = stats.f.sf(f, dfn, dfd)
                if want > 1e-300 and not _close(rstats.f_sf(f, dfn, dfd), want):
                    bad.append((f, dfn, dfd))
    assert not bad, bad[:5]


def test_t_quantile_and_survival_match_scipy():
    rng = random.Random(17)
    bad = []
    for df in range(1, 14 * 39 + 1):
        probs = [1 - alpha / 2.0 for alpha in ALPHAS] + [rng.uniform(0.5, 0.9999)]
        for p in probs:
            if not _close(rstats.t_ppf(p, df), stats.t.ppf(p, df)):
                bad.append(("ppf", p, df))
        t = rng.uniform(-8.0, 8.0)
        if not _close(rstats.t_sf(t, df), stats.t.sf(t, df)):
            bad.append(("sf", t, df))
    assert not bad, bad[:5]
