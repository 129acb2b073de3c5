"""perfbench/tracing.py: every npd layer a traced benchmark run wraps exists.

A traced run records a wrapped name that no longer exists as missing and
reads its layer's metrics as 0 (trace.missing_layers), then goes on. This
check catches a renamed or deleted layer in the fast suite, without running
the benchmark.
"""

import importlib.util
from pathlib import Path

from npd import cli

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_layer_exists():
    original = cli.cmd_predict
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert cli.cmd_predict is original
