"""The repository benchmark's tracer (``perfbench/tracer.py``) patches
engine names where they are looked up.  A rename in ``src/`` that
drops one of its entry points must fail here, not only in the traced
benchmark runs."""

import importlib
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO))

from perfbench.tracer import ENTRY_POINTS, SpanRecorder  # noqa: E402


def _lookup(module_name: str, path: str):
    """The raw attribute an entry point names, as the recorder reads it."""
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return vars(owner)[attribute] if owners else getattr(owner, attribute)


def test_span_recorder_patches_and_restores_every_entry_point():
    originals = [_lookup(module, path) for module, path, _ in ENTRY_POINTS]
    with SpanRecorder():
        patched = [_lookup(module, path) for module, path, _ in ENTRY_POINTS]
    restored = [_lookup(module, path) for module, path, _ in ENTRY_POINTS]
    for (module, path, _), before, during, after in zip(
            ENTRY_POINTS, originals, patched, restored):
        assert during is not before, f"{module}.{path} was not patched"
        assert after is before, f"{module}.{path} was not restored"
