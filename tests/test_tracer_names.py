"""The benchmark's tracer wraps program functions by module and name; every
one of them must still resolve.  ``perfbench/tracing.py`` is loaded from its
file and not modified."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    loader = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()
