"""Package-level invariants of the public API."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import fhnspde


def test_every_public_name_resolves():
    # each module's __all__ is edited by hand; a stale entry breaks
    # `from fhnspde.<module> import *` without failing any other test
    names = sorted(m.name for m in pkgutil.iter_modules(fhnspde.__path__))
    assert names == ["cli", "hopf", "kernels", "noise", "renorm", "solver",
                     "symbols"]
    for name in names:
        module = importlib.import_module(f"fhnspde.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"fhnspde.{name}.__all__ names {missing}"
        assert len(set(module.__all__)) == len(module.__all__)


def test_benchmark_tracer_targets_resolve():
    # perfbench/run.py --trace 1 wraps these callables by their names, so a
    # rename in the package breaks it; the tracer module is read, not changed
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for _, module, attr_path in tracer.TARGETS:
        obj = importlib.import_module(module)
        for part in attr_path.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{module}.{attr_path} is not callable"


def test_cli_import_skips_scipy_signal_and_stats():
    # scipy.signal (and the scipy.stats it loads) costs every command about
    # 0.7 s and 23 MB at start-up; only noise.mollify_noise needs it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import sys, fhnspde.cli; print(' '.join(m for m in sys.modules "
            "if m.startswith(('scipy.signal', 'scipy.stats'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
