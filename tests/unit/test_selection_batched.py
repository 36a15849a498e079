"""Batched configuration search: must be bit-identical to the scalar walk.

`select_configuration` fetches reliability estimates a whole candidate
axis at a time through `predict_vectors`, but the configuration, γ, step
count and trace it returns must match the scalar oracle
(`tests/oracle.py`), which scores one probe at a time with one plain
forward pass each, bit for bit on every context — the batching is
invisible except in cost.
"""

import numpy as np
import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.kpi import SelectionContext, select_configuration
from repro.kpi.selection import evaluate_configs, ParameterSteps
from repro.kpi.weighted import kpi_from_estimates
from repro.models import ReliabilityEstimate, ReliabilityPredictor, TrainingSettings
from repro.performance import ProducerPerformanceModel

from .. import oracle
from .test_predictor_batch import SEMANTICS, training_rows


@pytest.fixture(scope="module")
def predictor():
    rows = []
    for offset, semantics in enumerate(SEMANTICS[:2]):
        rows.extend(training_rows(semantics, "normal", count=20, seed=offset))
        rows.extend(training_rows(semantics, "abnormal", count=20, seed=5 + offset))
    built = ReliabilityPredictor()
    built.fit(rows, TrainingSettings(hidden=(16,), epochs=30, patience=None))
    return built


def contexts(count=9, seed=31):
    rng = np.random.default_rng(seed)
    out = []
    for index in range(count):
        if index % 2 == 0:
            delay, loss = float(rng.uniform(0.0, 0.15)), 0.0
        else:
            delay = float(rng.uniform(0.2, 0.45))
            loss = float(rng.uniform(0.02, 0.25))
        out.append(
            SelectionContext(
                message_bytes=int(rng.choice([100, 200, 500])),
                timeliness_s=float(rng.choice([5.0, 10.0])),
                network_delay_s=delay,
                loss_rate=loss,
            )
        )
    return out


class TestEvaluateConfigs:
    def test_entries_match_scalar_evaluate_config(self, predictor):
        model = ProducerPerformanceModel()
        steps = ParameterSteps()
        context = contexts(1)[0]
        # A slice of the full grid crossing semantics and batch size.
        configs = [
            ProducerConfig(semantics=semantics, batch_size=batch)
            for semantics in steps.semantics
            for batch in steps.batch_size
        ]
        gammas = evaluate_configs(configs, context, predictor, model)
        for config, gamma in zip(configs, gammas):
            assert gamma is not None
            assert gamma == oracle.evaluate_config(config, context, predictor, model)

    def test_uncovered_config_yields_none(self, predictor):
        model = ProducerPerformanceModel()
        context = contexts(1)[0]
        uncovered = ProducerConfig(semantics=DeliverySemantics.EXACTLY_ONCE)
        assert evaluate_configs([uncovered], context, predictor, model) == [None]
        assert oracle.evaluate_config(uncovered, context, predictor, model) is None


def same_outcome(left, right):
    return (
        left.config == right.config
        and left.gamma == right.gamma
        and left.met_requirement == right.met_requirement
        and left.steps_taken == right.steps_taken
        and left.trace == right.trace
    )


class TestBatchedSearchIdentity:
    @pytest.mark.parametrize("gamma_requirement", [0.5, 0.8, 0.99])
    def test_batched_search_bit_identical_to_scalar(
        self, predictor, gamma_requirement
    ):
        model = ProducerPerformanceModel()
        for context in contexts():
            batched = select_configuration(
                context, predictor, model, gamma_requirement=gamma_requirement,
            )
            oracle_backed = select_configuration(
                context, oracle.OraclePredictor(predictor), model,
                gamma_requirement=gamma_requirement,
            )
            scalar = oracle.select_configuration(
                oracle.gamma_of(context, predictor, model),
                gamma_requirement=gamma_requirement,
            )
            assert same_outcome(batched, oracle_backed), context
            assert same_outcome(batched, scalar), context

    def test_stub_predictor_matches_scalar_walk(self):
        class StubPredictor:
            def predict_vectors(self, vectors):
                return [
                    None
                    if vector.semantics is DeliverySemantics.EXACTLY_ONCE
                    else ReliabilityEstimate(
                        p_loss=min(1.0, vector.loss_rate * 3.0 / vector.batch_size),
                        p_duplicate=0.0,
                    )
                    for vector in vectors
                ]

        model = ProducerPerformanceModel()
        context = SelectionContext(
            message_bytes=200, timeliness_s=10.0,
            network_delay_s=0.3, loss_rate=0.1,
        )
        # Exactly-once is a candidate the stub cannot score: both walks skip it.
        steps = ParameterSteps(semantics=tuple(DeliverySemantics))

        def score(config):
            [reliability] = StubPredictor().predict_vectors([context.feature_vector(config)])
            if reliability is None:
                return None
            performance = model.predict(
                config, context.message_bytes, context.network_delay_s
            )
            return kpi_from_estimates(performance, reliability)

        batched = select_configuration(
            context, StubPredictor(), model, gamma_requirement=0.9, steps=steps
        )
        scalar = oracle.select_configuration(
            score, gamma_requirement=0.9, steps=steps
        )
        assert batched.steps_taken > 0
        assert same_outcome(batched, scalar)
