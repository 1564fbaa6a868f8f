"""Every function the benchmark traces still resolves, as CI's check of ``perfbench/tracing.py``."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [target for targets in tracing.LAYERS.values() for target in targets]
    missing = [target for target in targets if not callable(getattr(*tracing._resolve(target), None))]
    assert targets and not missing, missing
