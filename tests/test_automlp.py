"""Evolutionary ensemble search: replacement, elitism, ranges, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from ecoamlp.automlp import (
    AutoMlpParams,
    fit_automlp,
    init_population,
    run_generation,
)
from ecoamlp.errors import ConfigError
from ecoamlp.mlp import MlpConfig, MlpNetwork, evaluate_error

from synth import random_dataset, separable_dataset


def small_params(**overrides):
    base = dict(ensemble_size=4, cycles_per_generation=2, generations=3,
                hidden_range=(2, 16), lr_range=(0.01, 0.5), seed=0)
    base.update(overrides)
    return AutoMlpParams(**base)


@pytest.fixture(scope="module")
def train():
    return random_dataset(40, 3, seed=0)


@pytest.fixture(scope="module")
def validation():
    return random_dataset(20, 3, seed=1)


class TestInitPopulation:
    def test_size_and_ranges(self):
        params = small_params(ensemble_size=6)
        pop = init_population(params, input_dim=3)
        assert len(pop.members) == 6
        for net in pop.members:
            assert 2 <= net.config.hidden_units <= 16
            assert 0.01 <= net.config.learning_rate <= 0.5
            assert net.config.input_dim == 3

    def test_determinism_and_seed_sensitivity(self):
        a = init_population(small_params(), 3)
        b = init_population(small_params(), 3)
        assert [m.config for m in a.members] == [m.config for m in b.members]
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.w_ih, mb.w_ih)
        c = init_population(small_params(seed=99), 3)
        assert [m.config for m in a.members] != [m.config for m in c.members]

    def test_slots_draw_distinct_weight_seeds(self):
        pop = init_population(small_params(hidden_range=(4, 5)), 3)
        same_width = [m for m in pop.members if m.config.hidden_units == 4]
        for i in range(1, len(same_width)):
            assert not np.array_equal(same_width[0].w_ih, same_width[i].w_ih)


class TestRunGeneration:
    def test_records_and_replacement_flags(self, train, validation):
        params = small_params()
        pop = init_population(params, 3)
        run_generation(pop, train, validation)
        assert len(pop.history) == 1
        records = pop.history[0]
        assert [r.member for r in records] == [0, 1, 2, 3]
        errors = [r.validation_error for r in records]
        worst_two = sorted(range(4), key=lambda s: (errors[s], s))[2:]
        assert {r.member for r in records if r.replaced} == set(worst_two)

    def test_recorded_errors_match_member_evaluation(self, train, validation):
        params = small_params()
        pop = init_population(params, 3)
        members_before = list(pop.members)
        run_generation(pop, train, validation)
        for record in pop.history[0]:
            if not record.replaced:
                net = pop.members[record.member]
                assert net is members_before[record.member]
                assert evaluate_error(net, validation) == record.validation_error

    def test_losers_are_new_networks(self, train, validation):
        pop = init_population(small_params(), 3)
        members_before = list(pop.members)
        run_generation(pop, train, validation)
        for record in pop.history[0]:
            if record.replaced:
                assert pop.members[record.member] is not members_before[record.member]

    @pytest.mark.parametrize("size,expected", [(2, 1), (3, 1), (4, 2), (5, 2), (7, 3)])
    def test_replacement_count_is_floor_half(self, size, expected, train, validation):
        pop = init_population(small_params(ensemble_size=size), 3)
        run_generation(pop, train, validation)
        assert sum(r.replaced for r in pop.history[0]) == expected

    def test_tied_errors_replace_higher_slots(self, train, validation):
        # frozen all-zero members predict identically, so errors tie exactly
        # and the slot index decides who survives
        pop = init_population(small_params(), 3)
        for slot in range(4):
            config = MlpConfig(3, 2, 0.0, weight_init_seed=slot)
            pop.members[slot] = MlpNetwork(config, np.zeros((2, 4)), np.zeros(3))
        run_generation(pop, train, validation)
        errors = [r.validation_error for r in pop.history[0]]
        assert len(set(errors)) == 1
        assert [r.replaced for r in pop.history[0]] == [False, False, True, True]

    def test_offspring_hyperparameters_stay_in_range(self, train, validation):
        params = small_params(hidden_range=(3, 6), lr_range=(0.05, 0.1),
                              generations=4)
        pop = init_population(params, 3)
        for _ in range(4):
            run_generation(pop, train, validation)
            for net in pop.members:
                assert 3 <= net.config.hidden_units <= 6
                assert 0.05 <= net.config.learning_rate <= 0.1


class TestWarmStart:
    def test_matching_width_copies_parent_weights(self, train, validation):
        # seed pinned so the offspring's jittered width equals the parent's
        params = AutoMlpParams(ensemble_size=2, cycles_per_generation=2,
                               generations=1, hidden_range=(2, 3),
                               lr_range=(0.05, 0.5), seed=1, warm_start=True)
        pop = init_population(params, 3)
        run_generation(pop, train, validation)
        records = pop.history[0]
        loser = next(r.member for r in records if r.replaced)
        survivor = next(r.member for r in records if not r.replaced)
        child, parent = pop.members[loser], pop.members[survivor]
        assert child.config.hidden_units == parent.config.hidden_units
        assert np.array_equal(child.w_ih, parent.w_ih)
        assert np.array_equal(child.w_ho, parent.w_ho)

    def test_cold_start_draws_fresh_weights(self, train, validation):
        params = AutoMlpParams(ensemble_size=2, cycles_per_generation=2,
                               generations=1, hidden_range=(2, 3),
                               lr_range=(0.05, 0.5), seed=1, warm_start=False)
        pop = init_population(params, 3)
        run_generation(pop, train, validation)
        records = pop.history[0]
        loser = next(r.member for r in records if r.replaced)
        survivor = next(r.member for r in records if not r.replaced)
        child, parent = pop.members[loser], pop.members[survivor]
        assert child.config.hidden_units == parent.config.hidden_units
        assert not np.array_equal(child.w_ih, parent.w_ih)


class TestFitAutomlp:
    def test_single_generation_equals_manual_steps(self, train, validation):
        params = small_params(generations=1)
        run = fit_automlp(train, validation, params)

        pop = init_population(params, 3)
        run_generation(pop, train, validation)
        records = pop.history[0]
        want_slot = min(range(4), key=lambda s: (records[s].validation_error, s))
        assert run.winner_slot == want_slot
        assert np.array_equal(run.winner.w_ih, pop.members[want_slot].w_ih)
        assert run.history == tuple(pop.history)

    def test_winner_is_last_generation_minimum(self, train, validation):
        run = fit_automlp(train, validation, small_params())
        last = run.history[-1]
        assert run.winner_validation_error == min(r.validation_error for r in last)
        assert not last[run.winner_slot].replaced
        # the stored network is the one whose error was recorded
        assert evaluate_error(run.winner, validation) == run.winner_validation_error

    def test_history_shape_and_best_error_tracking(self, train, validation):
        params = small_params(generations=5)
        run = fit_automlp(train, validation, params)
        assert len(run.history) == 5
        assert all(len(gen) == 4 for gen in run.history)
        best = [min(r.validation_error for r in gen) for gen in run.history]
        running = np.minimum.accumulate(best)
        assert all(a >= b for a, b in zip(running, running[1:]))
        assert all(0.0 <= r.validation_error <= 1.0
                   for gen in run.history for r in gen)

    def test_search_beats_chance_on_separable_data(self):
        train = separable_dataset(60, 3, seed=3)
        validation = separable_dataset(30, 3, seed=4)
        run = fit_automlp(train, validation,
                          small_params(generations=4, cycles_per_generation=5,
                                       lr_range=(0.05, 0.5)))
        assert run.winner_validation_error <= 0.2

    def test_determinism(self, train, validation):
        a = fit_automlp(train, validation, small_params())
        b = fit_automlp(train, validation, small_params())
        assert a.history == b.history
        assert a.winner_slot == b.winner_slot
        assert np.array_equal(a.winner.w_ih, b.winner.w_ih)
        assert np.array_equal(a.winner.w_ho, b.winner.w_ho)

    def test_seed_changes_search(self, train, validation):
        a = fit_automlp(train, validation, small_params(seed=0))
        b = fit_automlp(train, validation, small_params(seed=5))
        assert a.history != b.history

    def test_empty_inputs_rejected(self, train):
        empty = train.take_rows(np.arange(0))
        with pytest.raises(ConfigError):
            fit_automlp(empty, train, small_params())
        with pytest.raises(ConfigError):
            fit_automlp(train, empty, small_params())


class TestParamValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(ensemble_size=1),
        dict(cycles_per_generation=0),
        dict(generations=0),
        dict(hidden_range=(5, 5)),
        dict(hidden_range=(0, 4)),
        dict(lr_range=(0.5, 0.1)),
        dict(lr_range=(0.0, 0.1)),
        dict(seed=-1),
    ])
    def test_bad_params(self, kwargs):
        with pytest.raises(ConfigError):
            small_params(**kwargs)
