"""Evolutionary hyperparameter search over a small ensemble of MLPs.

The ensemble holds ``ensemble_size`` networks whose hidden width and
learning rate are sampled log-uniformly from the configured ranges. Each
generation every member trains for ``cycles_per_generation`` epochs and is
scored by validation misclassification rate. Members rank by that error,
a tie going to the lower slot, and the worst floor(size / 2) are then
replaced in place by offspring: a surviving parent is picked uniformly,
its hidden width and learning rate are jittered log-normally (sigma 0.3
and 0.5 in log space), clamped back into range, and the child starts from
fresh random weights. With ``warm_start`` a child whose width matches its
parent copies the parent's weights instead.
:func:`fit_automlp` returns the finished :class:`AutoMlpPopulation`; its
winner is the best-ranked member of the last recorded generation.

Every random draw comes from a sub-seed derived from the run seed plus
structural tags (generation, slot, cycle), so runs are reproducible and
insensitive to incidental iteration order.

The members train in lockstep: each cycle is one
:func:`~ecoamlp.mlp.train_epochs` call over the whole population, with
member ``slot`` shuffled by its own (generation, slot, cycle) seed. The
lockstep step keeps every sum inside one network, so a member's weights
are the same as if it had trained alone, and the search is the same
search done in one Python loop instead of ``ensemble_size``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence, Tuple

import numpy as np

from .data import Dataset, round_half_up
from .errors import ConfigError
from .mlp import MlpConfig, MlpNetwork, evaluate_error, init_network, train_epochs
from .mlp import train_epoch  # noqa: F401 - perfbench/run.py traces automlp.train_epoch
from .rng import subseed

_ROLE_HP_INIT = 1
_ROLE_WEIGHTS = 2
_ROLE_SHUFFLE = 3
_ROLE_OFFSPRING = 4

HIDDEN_SIGMA = 0.3
"""Log-space jitter applied to a parent's hidden width."""

LR_SIGMA = 0.5
"""Log-space jitter applied to a parent's learning rate."""


@dataclasses.dataclass(frozen=True)
class AutoMlpParams:
    ensemble_size: int = 4
    cycles_per_generation: int = 10
    generations: int = 10
    hidden_range: Tuple[int, int] = (2, 256)
    lr_range: Tuple[float, float] = (1e-3, 1.0)
    seed: int = 0
    warm_start: bool = False

    def __post_init__(self) -> None:
        if self.ensemble_size < 2:
            raise ConfigError(f"ensemble_size must be >= 2, got {self.ensemble_size}")
        if self.cycles_per_generation < 1:
            raise ConfigError("cycles_per_generation must be >= 1")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        lo, hi = self.hidden_range
        if not (1 <= lo < hi):
            raise ConfigError(f"hidden_range must satisfy 1 <= min < max, got {self.hidden_range}")
        lr_lo, lr_hi = self.lr_range
        if not (0.0 < lr_lo < lr_hi < math.inf):
            raise ConfigError(f"lr_range must satisfy 0 < min < max < inf, got {self.lr_range}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclasses.dataclass(frozen=True)
class MemberRecord:
    """One member's standing after a generation's evaluation."""

    member: int
    hidden_units: int
    learning_rate: float
    validation_error: float
    replaced: bool


@dataclasses.dataclass
class AutoMlpPopulation:
    """Search state: the live networks and each past generation's records."""

    params: AutoMlpParams
    members: List[MlpNetwork]
    history: Tuple[Tuple[MemberRecord, ...], ...] = ()

    @property
    def winner_slot(self) -> int:
        """The best-ranked slot of the last recorded generation."""
        return _ranking([r.validation_error for r in self.history[-1]])[0]

    @property
    def winner(self) -> MlpNetwork:
        return self.members[self.winner_slot]


def init_population(params: AutoMlpParams, input_dim: int) -> AutoMlpPopulation:
    """Seeded initial ensemble with log-uniform hyperparameters."""
    hp_rng = np.random.default_rng(subseed(params.seed, _ROLE_HP_INIT))
    members = []
    for slot in range(params.ensemble_size):
        hidden = _sample_log_uniform(hp_rng, params.hidden_range, integer=True)
        lr = _sample_log_uniform(hp_rng, params.lr_range)
        members.append(_member(params, input_dim, hidden, lr, 0, slot))
    return AutoMlpPopulation(params, members)


def run_generation(population: AutoMlpPopulation, train: Dataset,
                   validation: Dataset) -> AutoMlpPopulation:
    """Train, evaluate, record, and replace the losing half in place."""
    params = population.params
    gen = len(population.history)
    for cycle in range(params.cycles_per_generation):
        seeds = [subseed(params.seed, _ROLE_SHUFFLE, gen, slot, cycle)
                 for slot in range(len(population.members))]
        train_epochs(population.members, train, seeds)
    errors = [evaluate_error(net, validation) for net in population.members]
    ranking = _ranking(errors)
    n_keep = params.ensemble_size - params.ensemble_size // 2
    survivors, losers = ranking[:n_keep], set(ranking[n_keep:])
    records = tuple(
        MemberRecord(
            member=slot,
            hidden_units=net.config.hidden_units,
            learning_rate=net.config.learning_rate,
            validation_error=errors[slot],
            replaced=slot in losers,
        )
        for slot, net in enumerate(population.members)
    )
    for slot in sorted(losers):
        population.members[slot] = _make_offspring(population, survivors, gen, slot)
    population.history += (records,)
    return population


def fit_automlp(train: Dataset, validation: Dataset, params: AutoMlpParams) -> AutoMlpPopulation:
    if len(train) == 0 or len(validation) == 0:
        raise ConfigError("automlp needs non-empty train and validation sets")
    population = init_population(params, input_dim=train.n_features)
    for _ in range(params.generations):
        run_generation(population, train, validation)
    return population


def _ranking(errors: Sequence[float]) -> List[int]:
    """Slots from best to worst: by validation error, a tie to the lower slot."""
    return sorted(range(len(errors)), key=lambda s: (errors[s], s))


def _member(params: AutoMlpParams, input_dim: int, hidden: int, lr: float,
            generation: int, slot: int) -> MlpNetwork:
    """A fresh network, its weights drawn from the (generation, slot) seed."""
    seed = subseed(params.seed, _ROLE_WEIGHTS, generation, slot)
    return init_network(MlpConfig(input_dim, hidden, lr, weight_init_seed=seed))


def _make_offspring(
    population: AutoMlpPopulation,
    survivors: List[int],
    gen: int,
    slot: int,
) -> MlpNetwork:
    params = population.params
    rng = np.random.default_rng(subseed(params.seed, _ROLE_OFFSPRING, gen, slot))
    parent = population.members[survivors[int(rng.integers(len(survivors)))]]
    hidden = _jitter_log_normal(rng, parent.config.hidden_units, HIDDEN_SIGMA,
                                params.hidden_range, integer=True)
    lr = _jitter_log_normal(rng, parent.config.learning_rate, LR_SIGMA, params.lr_range)
    child = _member(params, parent.config.input_dim, hidden, lr, gen + 1, slot)
    if params.warm_start and hidden == parent.config.hidden_units:
        child.w_ih = parent.w_ih.copy()
        child.w_ho = parent.w_ho.copy()
    return child


def _sample_log_uniform(rng: np.random.Generator, bounds, integer: bool = False):
    """A log-uniform draw from ``bounds``, rounded half up when ``integer``."""
    lo, hi = bounds
    return _clamp(math.exp(rng.uniform(math.log(lo), math.log(hi))), bounds, integer)


def _jitter_log_normal(rng: np.random.Generator, center, sigma: float, bounds,
                       integer: bool = False):
    """``center`` (clamped into ``bounds``) times a log-normal factor of
    log-space deviation ``sigma``, rounded half up when ``integer``."""
    center = _clamp(center, bounds)
    return _clamp(math.exp(math.log(center) + sigma * rng.standard_normal()), bounds, integer)


def _clamp(value, bounds, integer: bool = False):
    """``value``, rounded half up when ``integer``, clamped into ``bounds``."""
    lo, hi = bounds
    return min(max(round_half_up(value) if integer else value, lo), hi)
