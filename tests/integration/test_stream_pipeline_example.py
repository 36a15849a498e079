"""The Fig. 1 two-stage pipeline example, reconciled stage by stage."""

import importlib.util
from pathlib import Path

from repro.kafka import reconcile

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "stream_pipeline.py"


def _load_example():
    spec = importlib.util.spec_from_file_location("stream_pipeline_example", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exactly_once_stage_is_loss_and_duplicate_free(monkeypatch):
    example = _load_example()
    topics = {}

    def reconcile_and_keep_topic(source_keys, topic, **kwargs):
        topics[topic.name] = topic
        return reconcile(source_keys, topic, **kwargs)

    monkeypatch.setattr(example, "reconcile", reconcile_and_keep_topic)
    stage1, stage2, kept_keys = example.run_pipeline()
    stage1.check_conservation()
    assert stage1.produced == example.SOURCE_MESSAGES
    assert stage2.produced == len(kept_keys)
    assert stage2.p_loss == 0.0
    assert stage2.p_duplicate == 0.0
    # The report only looks up kept keys; read "derived" itself to see
    # that it holds exactly those keys, each once, and nothing else.
    assert topics["derived"].key_counts() == {key: 1 for key in kept_keys}
    # The filter only ever keeps keys that survived stage 1.
    assert kept_keys <= set(range(example.SOURCE_MESSAGES)) - stage1.lost_keys
