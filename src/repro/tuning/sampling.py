"""Sampling distributions for iterated racing (Figure 2, steps 1 and 3).

Each parameter carries a sampling distribution: a probability vector for
categorical parameters, a truncated discretised normal over candidate
*indices* for ordinal parameters. New candidates are sampled around a
parent elite; after each race the distributions are biased toward the
surviving elites and the ordinal spread shrinks, so sampling
progressively concentrates near the winning region — the "update the
distributions to bias future configuration sampling towards the best
ones" step.
"""

from __future__ import annotations

import random

from repro.tuning.parameters import Param, ParamSpace


class CategoricalSampler:
    """Probability vector over a categorical parameter's candidates."""

    def __init__(self, param: Param) -> None:
        self.param = param
        n = len(param.values)
        self.probs = [1.0 / n] * n

    def sample(self, rng: random.Random, parent_value=None, parent_weight: float = 0.5):
        """Sample a value; with ``parent_weight`` probability keep the
        parent elite's value, otherwise draw from the learned vector."""
        if parent_value is not None and rng.random() < parent_weight:
            return parent_value
        r = rng.random()
        acc = 0.0
        for value, p in zip(self.param.values, self.probs):
            acc += p
            if r <= acc:
                return value
        return self.param.values[-1]

    def update(self, elite_values: list, rate: float) -> None:
        """Shift mass toward the elites' values by ``rate``."""
        if not elite_values:
            return
        n = len(self.param.values)
        counts = [0.0] * n
        for value in elite_values:
            counts[self.param.index_of(value)] += 1.0
        total = sum(counts)
        target = [c / total for c in counts]
        floor = 0.01 / n
        self.probs = [
            max(floor, (1.0 - rate) * p + rate * t) for p, t in zip(self.probs, target)
        ]
        norm = sum(self.probs)
        self.probs = [p / norm for p in self.probs]


class OrdinalSampler:
    """Truncated discretised normal over candidate indices."""

    def __init__(self, param: Param) -> None:
        self.param = param
        n = len(param.values)
        self.sigma = max(0.5, (n - 1) / 2.0)

    def sample(self, rng: random.Random, parent_value=None, parent_weight: float = 0.0):
        values = self.param.values
        n = len(values)
        if parent_value is None:
            return values[rng.randrange(n)]
        mean = self.param.index_of(parent_value)
        idx = int(round(rng.gauss(mean, self.sigma)))
        if idx < 0:
            idx = 0
        elif idx >= n:
            idx = n - 1
        return values[idx]

    def shrink(self, factor: float) -> None:
        """Tighten the spread after an iteration (never fully collapses,
        so late iterations still explore adjacent candidates)."""
        self.sigma = max(0.35, self.sigma * factor)


class ConfigSampler:
    """Samples full assignments around parent elites."""

    def __init__(self, space: ParamSpace, seed: int = 0) -> None:
        self.space = space
        self.rng = random.Random(seed)
        self._samplers: dict = {}
        for p in space:
            if p.kind == "ordinal":
                self._samplers[p.name] = OrdinalSampler(p)
            else:
                self._samplers[p.name] = CategoricalSampler(p)

    def sample_config(self, parent: dict = None, parent_weight: float = 0.5) -> dict:
        """One new assignment; uniform when ``parent`` is None."""
        out = {}
        for p in self.space:
            sampler = self._samplers[p.name]
            parent_value = parent.get(p.name) if parent else None
            out[p.name] = sampler.sample(self.rng, parent_value, parent_weight)
        return out

    def update(self, elites: list, rate: float, shrink: float = 0.7) -> None:
        """Bias distributions toward ``elites`` (list of assignments)."""
        for p in self.space:
            sampler = self._samplers[p.name]
            values = [e[p.name] for e in elites if p.name in e]
            if isinstance(sampler, CategoricalSampler):
                sampler.update(values, rate)
            else:
                sampler.shrink(shrink)
