"""Weighted KPI (Eq. 2), configuration selection and dynamic configuration.

``weighted_kpi`` evaluates Eq. 2; ``evaluate_configs`` predicts the γ of
candidate configurations through the predictor's batched path and
``select_configuration`` performs the paper's stepwise search on it;
``DynamicConfigurationController`` generates the offline configuration
file and ``run_traced_experiment`` replays it over a network trace,
aggregating Eq. 3 into the Table II rates.  The same replay drives the
online extension: ``DegradedModeController`` closes the loop from the
``NetworkStateEstimator``'s estimate of the network state.
"""

from .aggregate import IntervalMeasurement, OverallRates, aggregate_rates
from .online import NetworkStateEstimate, NetworkStateEstimator
from .dynamic import (
    PARKED_CONFIG,
    CircuitBreaker,
    ConfigPlanEntry,
    ConfigurationPlan,
    DegradedDecision,
    DegradedModeController,
    DynamicConfigurationController,
    DynamicRunReport,
    IntervalObservation,
    predict_gamma,
    required_producers,
    run_traced_experiment,
)
from .selection import (
    ParameterSteps,
    SelectionContext,
    SelectionResult,
    evaluate_configs,
    scale_producers,
    select_configuration,
)
from .weighted import DEFAULT_WEIGHTS, KpiWeights, kpi_from_estimates, weighted_kpi

__all__ = [
    "IntervalMeasurement",
    "OverallRates",
    "aggregate_rates",
    "ConfigPlanEntry",
    "ConfigurationPlan",
    "DynamicConfigurationController",
    "DynamicRunReport",
    "IntervalObservation",
    "CircuitBreaker",
    "DegradedDecision",
    "DegradedModeController",
    "PARKED_CONFIG",
    "predict_gamma",
    "required_producers",
    "run_traced_experiment",
    "ParameterSteps",
    "SelectionContext",
    "SelectionResult",
    "evaluate_configs",
    "scale_producers",
    "select_configuration",
    "NetworkStateEstimate",
    "NetworkStateEstimator",
    "KpiWeights",
    "DEFAULT_WEIGHTS",
    "weighted_kpi",
    "kpi_from_estimates",
]
