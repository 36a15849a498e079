"""Scalar reference answers for the batched prediction path.

``ReliabilityPredictor`` has one way to a prediction: ``predict_vectors``
groups vectors by submodel, runs each group through one stacked per-row
forward pass and memoises the answers by quantised features.  This module
recomputes the same answers the plain way — one vector, one
``Sequential.predict`` call on a single row, no memo, no grouping — and
walks the stepwise search one probe at a time, so tests and
``benchmarks/bench_predict.py`` can check the fast path bit for bit.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.kafka import ProducerConfig
from repro.kpi import DEFAULT_WEIGHTS, KpiWeights, kpi_from_estimates
from repro.kpi.selection import ParameterSteps, SelectionContext, SelectionResult
from repro.models import FeatureVector, ReliabilityEstimate, ReliabilityPredictor
from repro.models.predictor import CONSERVATIVE_ESTIMATE, FallbackEstimate
from repro.performance import ProducerPerformanceModel


def predict(
    predictor: ReliabilityPredictor, vector: FeatureVector
) -> Optional[ReliabilityEstimate]:
    """The ANN answer for one vector, or ``None`` if no submodel covers it."""
    submodel = predictor.submodels.get(vector.submodel_key)
    if submodel is None:
        return None
    row = submodel.scaler.transform(submodel.schema.encode(vector)[None, :])
    outputs = np.clip(submodel.network.predict(row), 0.0, 1.0)[0]
    return submodel.estimate_from_outputs(outputs)


def predict_with_fallback(
    predictor: ReliabilityPredictor, vector: FeatureVector
) -> FallbackEstimate:
    """The fallback chain for one vector: ANN, else nearest remembered
    measurement under the same semantics, else the conservative default."""
    estimate = predict(predictor, vector)
    if estimate is not None:
        return FallbackEstimate(estimate, "ann")
    neighbour = predictor._nearest_neighbour(vector)
    if neighbour is not None:
        return FallbackEstimate(neighbour, "neighbour")
    return FallbackEstimate(CONSERVATIVE_ESTIMATE, "conservative")


class OraclePredictor:
    """``predict_vectors`` answered one vector at a time by :func:`predict`."""

    def __init__(self, predictor: ReliabilityPredictor) -> None:
        self.predictor = predictor

    def predict_vectors(
        self, vectors: Sequence[FeatureVector]
    ) -> List[Optional[ReliabilityEstimate]]:
        return [predict(self.predictor, vector) for vector in vectors]


def evaluate_config(
    config: ProducerConfig,
    context: SelectionContext,
    predictor: ReliabilityPredictor,
    performance_model: ProducerPerformanceModel,
    weights: KpiWeights = DEFAULT_WEIGHTS,
) -> Optional[float]:
    """Predicted γ of one configuration, ``None`` if no submodel covers it."""
    reliability = predict(predictor, context.feature_vector(config))
    if reliability is None:
        return None
    performance = performance_model.predict(
        config, context.message_bytes, context.network_delay_s
    )
    return kpi_from_estimates(performance, reliability, weights)


def gamma_of(
    context: SelectionContext,
    predictor: ReliabilityPredictor,
    performance_model: ProducerPerformanceModel,
    weights: KpiWeights = DEFAULT_WEIGHTS,
) -> Callable[[ProducerConfig], Optional[float]]:
    """:func:`evaluate_config` with everything but the configuration bound."""
    return functools.partial(
        evaluate_config,
        context=context,
        predictor=predictor,
        performance_model=performance_model,
        weights=weights,
    )


def select_configuration(
    score: Callable[[ProducerConfig], Optional[float]],
    gamma_requirement: float = 0.8,
    start: Optional[ProducerConfig] = None,
    steps: Optional[ParameterSteps] = None,
    max_rounds: int = 8,
) -> SelectionResult:
    """The paper's stepwise search, scoring each probe as it is made.

    ``score`` returns a candidate's γ, or ``None`` to skip it.  Same
    rules as ``repro.kpi.select_configuration``: parameters in a fixed
    order, ``+1`` before ``-1``, a move needs ``> γ + 1e-9``, exit as soon
    as the requirement is met or a round makes no move.
    """
    steps = steps if steps is not None else ParameterSteps()
    config = start if start is not None else ProducerConfig()
    start_gamma = score(config)
    gamma = start_gamma if start_gamma is not None else float("-inf")
    result = SelectionResult(config, gamma, gamma >= gamma_requirement, 0)
    result.trace.append(("start", gamma))
    if result.met_requirement:
        return result
    parameters = ["semantics", "batch_size", "polling_interval_s", "message_timeout_s"]
    for _round in range(max_rounds):
        moved = False
        for parameter in parameters:
            values = list(getattr(steps, parameter))
            current_value = getattr(config, parameter)
            if current_value not in values:
                values = sorted(
                    set(values) | {current_value},
                    key=lambda v: (str(v) if parameter == "semantics" else float(v)),
                )
            index = values.index(current_value)
            improved = True
            while improved:
                improved = False
                for direction in (+1, -1):
                    neighbour = index + direction
                    if not 0 <= neighbour < len(values):
                        continue
                    candidate = config.with_(**{parameter: values[neighbour]})
                    candidate_gamma = score(candidate)
                    if candidate_gamma is None:
                        continue
                    result.steps_taken += 1
                    if candidate_gamma > gamma + 1e-9:
                        config, gamma, index = candidate, candidate_gamma, neighbour
                        result.trace.append((f"{parameter}={values[neighbour]}", gamma))
                        moved = improved = True
                        break
                if gamma >= gamma_requirement:
                    result.config, result.gamma = config, gamma
                    result.met_requirement = True
                    return result
        if not moved:
            break
    result.config, result.gamma = config, max(gamma, 0.0)
    result.met_requirement = gamma >= gamma_requirement
    return result
