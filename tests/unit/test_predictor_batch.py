"""Batched prediction path: bitwise identity and memo hygiene.

Every estimate `predict_vectors` and `predict_with_fallback_batch` return
must be *bitwise* identical to the scalar oracle (`tests/oracle.py`: one
row, one plain forward pass, no memo), across both Fig. 3 regions, all
three delivery semantics and every tier of the degraded fallback chain.
The quantised-key memo must never serve a stale entry after `fit()` or
`remember()` changes what the predictor knows.
"""

import dataclasses

import numpy as np
import pytest

from repro.kafka import DeliverySemantics
from repro.models import (
    FeatureVector,
    ReliabilityPredictor,
    TrainingSettings,
)
from repro.testbed import ExperimentResult

from .. import oracle

SEMANTICS = [
    DeliverySemantics.AT_MOST_ONCE,
    DeliverySemantics.AT_LEAST_ONCE,
    DeliverySemantics.EXACTLY_ONCE,
]

FAST = TrainingSettings(hidden=(8,), epochs=5, patience=None)


def make_result(**overrides):
    defaults = dict(
        message_bytes=200,
        timeliness_s=None,
        network_delay_s=0.0,
        loss_rate=0.0,
        semantics="at_least_once",
        batch_size=1,
        polling_interval_s=0.0,
        message_timeout_s=1.5,
        produced=1000,
        p_loss=0.1,
        p_duplicate=0.01,
    )
    defaults.update(overrides)
    return ExperimentResult(**defaults)


def training_rows(semantics, region, count=16, seed=0):
    """Synthetic measured rows routed to one (region, semantics) submodel."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        if region == "normal":
            delay, loss = 0.0, 0.0
        else:
            delay = float(rng.choice([0.25, 0.3, 0.4]))
            loss = float(rng.choice([0.05, 0.1, 0.2]))
        batch = int(rng.choice([1, 2, 4, 8]))
        rows.append(
            make_result(
                semantics=semantics.value,
                network_delay_s=delay,
                loss_rate=loss,
                batch_size=batch,
                message_bytes=int(rng.choice([100, 200, 500])),
                p_loss=min(1.0, max(0.0, loss * 2.0 / batch)),
                p_duplicate=0.02 / batch,
            )
        )
    return rows


def query_grid(seed=7, count=120):
    """Random queries spanning regions, semantics and the feature ranges."""
    rng = np.random.default_rng(seed)
    vectors = []
    for index in range(count):
        if index % 2 == 0:
            delay, loss = float(rng.uniform(0.0, 0.19)), 0.0
        else:
            delay = float(rng.uniform(0.2, 0.5))
            loss = float(rng.uniform(0.01, 0.3))
        vectors.append(
            FeatureVector(
                message_bytes=float(rng.choice([100, 200, 500, 900])),
                timeliness_s=float(rng.choice([0.0, 5.0, 10.0])),
                network_delay_s=delay,
                loss_rate=loss,
                semantics=SEMANTICS[index % 3],
                batch_size=float(rng.choice([1, 2, 4, 8, 10])),
                polling_interval_s=float(rng.choice([0.0, 0.02, 0.09])),
                message_timeout_s=float(rng.choice([0.5, 1.5, 3.0])),
            )
        )
    return vectors


@pytest.fixture(scope="module")
def full_predictor():
    """A predictor with all six (region, semantics) submodels trained."""
    rows = []
    for offset, semantics in enumerate(SEMANTICS):
        rows.extend(training_rows(semantics, "normal", seed=offset))
        rows.extend(training_rows(semantics, "abnormal", seed=10 + offset))
    predictor = ReliabilityPredictor()
    predictor.fit(rows, FAST)
    return predictor


@pytest.fixture()
def partial_predictor():
    """Coverage gaps exercising every fallback tier.

    Trained submodels only for at-least-once; at-most-once rows are
    *remembered* (neighbour tier); exactly-once has nothing at all
    (conservative tier).
    """
    predictor = ReliabilityPredictor()
    rows = training_rows(DeliverySemantics.AT_LEAST_ONCE, "normal")
    rows += training_rows(DeliverySemantics.AT_LEAST_ONCE, "abnormal", seed=3)
    predictor.fit(rows, FAST)
    predictor.remember(training_rows(DeliverySemantics.AT_MOST_ONCE, "abnormal", seed=5))
    return predictor


class TestBatchedIdentity:
    def test_predict_vectors_bitwise_equals_scalar(self, full_predictor):
        full_predictor.invalidate_caches()
        vectors = query_grid()
        batched = full_predictor.predict_vectors(vectors)
        regions = set()
        for vector, estimate in zip(vectors, batched):
            scalar = oracle.predict(full_predictor, vector)
            assert estimate.p_loss == scalar.p_loss, vector
            assert estimate.p_duplicate == scalar.p_duplicate, vector
            regions.add(vector.submodel_key)
        assert len(regions) == 6  # both regions x all three semantics

    def test_second_pass_serves_from_memo_identically(self, full_predictor):
        vectors = query_grid(seed=11, count=40)
        first = full_predictor.predict_vectors(vectors)
        hits_before, _ = full_predictor.memo_stats
        second = full_predictor.predict_vectors(vectors)
        hits_after, _ = full_predictor.memo_stats
        assert hits_after >= hits_before + len(vectors)
        assert first == second

    def test_missing_submodel_raises_or_skips(self, partial_predictor):
        uncovered = FeatureVector(
            message_bytes=200.0,
            timeliness_s=0.0,
            network_delay_s=0.0,
            loss_rate=0.0,
            semantics=DeliverySemantics.EXACTLY_ONCE,
            batch_size=1.0,
            polling_interval_s=0.0,
            message_timeout_s=1.5,
        )
        assert partial_predictor.predict_vectors([uncovered]) == [None]
        with pytest.raises(KeyError):
            partial_predictor.predict_vector(uncovered)
        # A fallback-tier answer in the memo is still "not covered".
        partial_predictor.predict_with_fallback_batch([uncovered])
        assert partial_predictor.predict_vectors([uncovered]) == [None]
        with pytest.raises(KeyError):
            partial_predictor.predict_vector(uncovered)

    def test_single_vector_and_evaluate_match_oracle(self, full_predictor):
        full_predictor.invalidate_caches()
        vector = query_grid(seed=5, count=1)[0]
        scalar = oracle.predict(full_predictor, vector)
        assert full_predictor.predict_vector(vector) == scalar
        rows = training_rows(DeliverySemantics.AT_LEAST_ONCE, "abnormal", seed=41)
        rows += training_rows(DeliverySemantics.AT_MOST_ONCE, "normal", seed=43)
        losses, duplicates = [], []
        for row in rows:
            estimate = oracle.predict(full_predictor, FeatureVector.from_result(row))
            losses.append(abs(estimate.p_loss - row.p_loss))
            if row.semantics != "at_most_once":
                duplicates.append(abs(estimate.p_duplicate - row.p_duplicate))
        report = full_predictor.evaluate(rows)
        assert report["p_loss"] == float(np.mean(losses))
        assert report["p_duplicate"] == float(np.mean(duplicates))
        assert report["overall"] == float(np.mean(losses + duplicates))


class TestFallbackChainIdentity:
    def test_batch_matches_scalar_across_all_tiers(self, partial_predictor):
        vectors = query_grid(seed=13)
        batched = partial_predictor.predict_with_fallback_batch(vectors)
        sources = set()
        for vector, fallback in zip(vectors, batched):
            scalar = oracle.predict_with_fallback(partial_predictor, vector)
            assert fallback.source == scalar.source, vector
            assert fallback.estimate.p_loss == scalar.estimate.p_loss
            assert fallback.estimate.p_duplicate == scalar.estimate.p_duplicate
            sources.add(fallback.source)
        # The grid must actually have exercised the whole degraded chain.
        assert sources == {"ann", "neighbour", "conservative"}

    def test_vectorised_neighbour_matches_python_scan(self, partial_predictor):
        scales = ReliabilityPredictor._NEIGHBOUR_SCALES
        for vector in query_grid(seed=17, count=30):
            if vector.semantics is not DeliverySemantics.AT_MOST_ONCE:
                continue
            best, best_distance = None, float("inf")
            for row in partial_predictor._memory:
                candidate = FeatureVector.from_result(row)
                if candidate.semantics is not vector.semantics:
                    continue
                distance = sum(
                    ((getattr(vector, name) - getattr(candidate, name)) / scale) ** 2
                    for name, scale in scales.items()
                )
                if distance < best_distance:
                    best, best_distance = row, distance
            estimate = partial_predictor._nearest_neighbour(vector)
            assert estimate is not None and best is not None
            assert estimate.p_loss == min(1.0, max(0.0, float(best.p_loss)))


class TestMemoInvalidation:
    def test_remember_invalidates_memo_and_neighbour_index(self):
        predictor = ReliabilityPredictor()
        predictor.remember(
            [make_result(semantics="at_most_once", loss_rate=0.2,
                         network_delay_s=0.3, p_loss=0.5)]
        )
        query = FeatureVector(
            message_bytes=200.0,
            timeliness_s=0.0,
            network_delay_s=0.3,
            loss_rate=0.1,
            semantics=DeliverySemantics.AT_MOST_ONCE,
            batch_size=1.0,
            polling_interval_s=0.0,
            message_timeout_s=1.5,
        )
        [before] = predictor.predict_with_fallback_batch([query])
        assert before.source == "neighbour" and before.estimate.p_loss == 0.5
        # A new, much closer measurement must win immediately: a stale
        # memo or neighbour index would keep serving p_loss=0.5.
        predictor.remember(
            [make_result(semantics="at_most_once", loss_rate=0.1,
                         network_delay_s=0.3, p_loss=0.05)]
        )
        [after] = predictor.predict_with_fallback_batch([query])
        assert after.estimate.p_loss == 0.05
        scalar = oracle.predict_with_fallback(predictor, query)
        assert after.estimate.p_loss == scalar.estimate.p_loss

    def test_fit_invalidates_memo(self):
        rows_a = training_rows(DeliverySemantics.AT_LEAST_ONCE, "abnormal", seed=1)
        predictor = ReliabilityPredictor()
        predictor.fit(rows_a, FAST)
        vectors = query_grid(seed=19, count=12)
        covered = [
            v for v in vectors
            if v.semantics is DeliverySemantics.AT_LEAST_ONCE
            and v.region == "abnormal"
        ]
        assert covered
        predictor.predict_vectors(covered)
        # Refit with a shifted target function; predictions must all track
        # the new model — bitwise equal to the (unmemoised) scalar oracle.
        rows_b = [
            dataclasses.replace(r, p_loss=min(1.0, r.p_loss + 0.3))
            for r in rows_a
        ]
        predictor.fit(rows_b, FAST)
        batched = predictor.predict_vectors(covered)
        for vector, estimate in zip(covered, batched):
            scalar = oracle.predict(predictor, vector)
            assert estimate.p_loss == scalar.p_loss
            assert estimate.p_duplicate == scalar.p_duplicate

    def test_invalidate_caches_empties_memo(self, full_predictor):
        full_predictor.predict_vectors(query_grid(seed=23, count=10))
        assert len(full_predictor._memo) > 0
        full_predictor.invalidate_caches()
        assert len(full_predictor._memo) == 0

    def test_memo_capacity_bounds_the_cache(self):
        predictor = ReliabilityPredictor()
        predictor.fit(
            training_rows(DeliverySemantics.AT_LEAST_ONCE, "normal"), FAST
        )
        predictor.MEMO_CAPACITY = 8
        rng = np.random.default_rng(29)
        vectors = [
            FeatureVector(
                message_bytes=float(100 + i),
                timeliness_s=0.0,
                network_delay_s=float(rng.uniform(0.0, 0.19)),
                loss_rate=0.0,
                semantics=DeliverySemantics.AT_LEAST_ONCE,
                batch_size=1.0,
                polling_interval_s=0.0,
                message_timeout_s=1.5,
            )
            for i in range(30)
        ]
        predictor.predict_vectors(vectors)
        assert len(predictor._memo) <= 8
