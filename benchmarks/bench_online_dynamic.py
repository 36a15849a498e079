"""Extension bench: online dynamic configuration (paper future work).

The paper's Section V controller assumes the network status is known and
generates configurations offline; its conclusion lists an online
algorithm as future work.  This bench evaluates our implementation of
that extension: a closed loop (``DegradedModeController``) that
*estimates* delay and loss from producer-observable signals (min-RTT,
retransmission and retry counters) and re-runs the stepwise KPI search
per interval.  All three policies replay the same trace through
``run_traced_experiment`` — same intervals, workload and seeds — so only
the policy differs between the rows.

Expected ordering on the Fig. 9 trace:

    default (static)  >>  online (estimated state)  >=  oracle (known state)
"""


from repro.analysis import comparison_table, render_table
from repro.kafka import DEFAULT_PRODUCER_CONFIG
from repro.kpi import (
    DegradedModeController,
    DynamicConfigurationController,
    KpiWeights,
    run_traced_experiment,
)
from repro.network import generate_paper_trace
from repro.performance import ProducerPerformanceModel
from repro.simulation import RngRegistry

from paper_targets import Criterion
from conftest import write_report
from repro.workloads import PAPER_STREAMS


def run_comparison(paper_model):
    trace = generate_paper_trace(
        RngRegistry(191).stream("online"), duration_s=300, interval_s=10
    )
    performance_model = ProducerPerformanceModel()
    outcomes = {}
    for stream in PAPER_STREAMS:
        weights = KpiWeights.of(stream.kpi_weights)
        default = run_traced_experiment(
            trace, stream, static_config=DEFAULT_PRODUCER_CONFIG,
            messages_cap_per_interval=300, seed=11,
        )
        oracle_controller = DynamicConfigurationController(
            paper_model, performance_model, weights=weights,
            gamma_requirement=0.95, reconfig_interval_s=60.0,
        )
        plan = oracle_controller.generate_plan(trace, stream)
        oracle = run_traced_experiment(
            trace, stream, plan=plan, messages_cap_per_interval=300, seed=11,
        )
        online_controller = DegradedModeController(
            paper_model, performance_model, weights=weights, gamma_requirement=0.95,
        )
        online = run_traced_experiment(
            trace, stream, controller=online_controller,
            messages_cap_per_interval=300, seed=11,
        )
        outcomes[stream.name] = {
            "default": default.rates.r_loss,
            "online": online.rates.r_loss,
            "oracle": oracle.rates.r_loss,
        }
    return outcomes


def test_online_dynamic_configuration(benchmark, paper_model):
    outcomes = benchmark.pedantic(
        run_comparison, args=(paper_model,), rounds=1, iterations=1
    )
    rows = [["stream", "default R_l", "online R_l", "oracle R_l"]]
    for stream, values in outcomes.items():
        rows.append([
            stream,
            f"{values['default']:.2%}",
            f"{values['online']:.2%}",
            f"{values['oracle']:.2%}",
        ])
    table = render_table(rows, title="Online vs offline dynamic configuration")

    criteria = []
    for stream, values in outcomes.items():
        criteria.append(
            Criterion(
                f"{stream}: online beats the default",
                "estimated-state control recovers a sizable share of the oracle's gain",
                f"default {values['default']:.2%} → online {values['online']:.2%}",
                values["online"] < 0.75 * values["default"],
            )
        )
        criteria.append(
            Criterion(
                f"{stream}: oracle not (much) worse than online",
                "knowing the state can only help",
                f"oracle {values['oracle']:.2%} vs online {values['online']:.2%}",
                values["oracle"] <= values["online"] + 0.05,
            )
        )
    text = table + "\n\n" + comparison_table(
        "Online-control criteria", [criterion.as_tuple() for criterion in criteria]
    )
    write_report("online_dynamic", text)
    failed = [criterion.label for criterion in criteria if not criterion.holds]
    assert not failed, f"diverged: {failed}"
