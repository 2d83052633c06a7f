"""The benchmark's tracer still covers every binding of the functions it wraps.

``perfbench/tracing.py`` pins, in ``WRAPPED``, how many module-level
bindings each wrapped library function has across the package.  Adding or
dropping a by-name import of one of them anywhere in ``cascade_forge``
changes a count, and a traced benchmark run then stops with ``TraceError``.
This test runs the same patch on a fresh import of the package, so such a
change fails here first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _package_modules():
    return [n for n in sys.modules if n == "cascade_forge" or n.startswith("cascade_forge.")]


def test_tracer_patches_every_pinned_binding():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    saved = {name: sys.modules.pop(name) for name in _package_modules()}
    try:
        layers = sorted({layer for layer, _ in tracing.WRAPPED})
        modules = {layer: importlib.import_module(f"cascade_forge.{layer}") for layer in layers}
        tracer = tracing.Tracer()
        tracer.patch(modules)  # raises TraceError when a binding count differs
        tracer.unpatch()
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
