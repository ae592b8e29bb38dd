"""The benchmark tracer wraps library functions by module attribute
(``bench/tracing.CALL_SITES``); a renamed or dropped name would break it
without failing any library test."""

import importlib
import importlib.util
from pathlib import Path

from spectral_tetris import FrameSpec, construct, pnstc

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _call_sites():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CALL_SITES


def test_every_traced_call_site_resolves():
    sites = _call_sites()
    assert sites
    for module_name, attribute, *_ in sites:
        module = importlib.import_module(f"spectral_tetris.{module_name}")
        assert callable(getattr(module, attribute, None)), (module_name, attribute)


def test_pnstc_looks_build_block_up_on_its_module(monkeypatch):
    calls = []
    original = construct.build_block

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(construct, "build_block", counted)
    pnstc(FrameSpec(eigenvalues=(15, 4, 1, 4), norms_sq=(9, 4, 3, 3, 1, 4)))
    assert len(calls) == 1
