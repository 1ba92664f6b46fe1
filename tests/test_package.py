"""Package-level invariants of the public API."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _tracer_targets():
    """perfbench's tracer TARGETS; the tracer module is read, not changed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_benchmark_tracer_targets_resolve():
    # perfbench/run.py --trace 1 wraps these callables by their names, so a
    # rename in the package breaks it
    targets = _tracer_targets()
    assert targets
    for _, module, attr_path in targets:
        obj = importlib.import_module(module)
        for part in attr_path.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{module}.{attr_path} is not callable"


def test_cli_import_skips_scipy_signal_and_stats():
    # importing scipy costs every command about 0.4 s and 45 MB at start-up;
    # the package holds its own splines, J0, matrix exponential and noise
    # mollifier, and imports no scipy anywhere
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import sys, fhnspde.cli; print(' '.join(m for m in sys.modules "
            "if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_package_never_imports_scipy():
    # scipy is a test oracle only: no module of the package imports it, at
    # any depth (a deferred import inside a function counts)
    src = Path(fhnspde.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in mods
                      if m == "scipy" or m.startswith("scipy.")]
    assert not found, found


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")      # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]

    def names(reqs):
        return {re.split(r"[<>=!~;\[ ]", r, maxsplit=1)[0].lower()
                for r in reqs}

    assert names(project["dependencies"]) == {"numpy", "sympy"}
    assert "scipy" in names(project["optional-dependencies"]["test"])


def test_numeric_commands_never_execute_sympy(tmp_path):
    # only renorm-eq runs the symbolic layer; F is read into an exact table
    # without sympy, which the numeric commands never load (about 0.4 s and
    # 32 MB at start-up); constants in d = 3, a d = 3 run and a d = 2 sweep
    # leave no scipy module behind either, nor numpy.ma, which np.unique
    # imports when called without return_*
    root = Path(__file__).resolve().parents[1]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nn_space = 16\ndt = 1e-4\nt_end = 2e-4\n"
                   "[system]\ndim = {dim}\nF = u - u^3 - v\n"
                   "[noise]\neps = 0.25\n"
                   "[sweep]\neps_list = 2^-2\nt_star = 2e-4\n")
    d3, d2 = tmp_path / "d3.cfg", tmp_path / "d2.cfg"
    d3.write_text(cfg.read_text().format(dim=3))
    d2.write_text(cfg.read_text().format(dim=2))
    code = (
        "import sys\n"
        "from fhnspde.cli import main\n"
        "rcs = [main(['constants', '--dim', '3', '--eps-list', '2^-4']),\n"
        f"       main(['simulate', '--config', {str(d3)!r}]),\n"
        f"       main(['converge', '--config', {str(d2)!r}])]\n"
        "print(rcs, 'sympy.core' in sys.modules,\n"
        "      [m for m in sys.modules if m.startswith('scipy')],\n"
        "      'numpy.ma' in sys.modules)\n"
        "print(main(['renorm-eq', '--dim', '3', '--F', 'u - u^3 - v']))\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               FHNSPDE_OUT=str(tmp_path / "out"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    lines = out.splitlines()
    assert "[0, 0, 0] False [] False" in lines and lines[-1] == "0", out


def test_every_parameter_is_read():
    # a parameter that its function never reads is a dead knob: callers
    # pass it and believe it acts (self and cls are exempt)
    src = Path(fhnspde.__file__).resolve().parent
    unread = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "lambda")
            unread += [f"{path.name}:{node.lineno} {name}({p})" for p in params
                       if p not in read and p not in ("self", "cls")]
    assert not unread, unread


def _names(parts) -> set[str]:
    """Every Name and Attribute.attr under the given nodes, annotations
    (of arguments, returns and annotated assignments) left out."""
    out, todo = set(), list(parts)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                todo += [v for v in (value if isinstance(value, list)
                                     else [value]) if isinstance(v, ast.AST)]
    return out


def test_every_definition_is_reached_from_the_cli():
    # code that no command reaches is carried for the tests only and lives
    # in tests/reference.py; roots are cli.main, every module-level
    # statement (they run at import) and the callables perfbench's tracer
    # wraps by name.  An edge is a name in a definition's decorators,
    # defaults, bases or body; matching by name over-approximates the
    # call graph, which is the safe side
    src = Path(fhnspde.__file__).resolve().parent
    defs, roots = {}, {"main"}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.setdefault(node.name, []).append(
                    (path.stem, node.lineno, node))
            else:
                roots |= _names([node])

    def reach(start):
        seen, todo = set(), [n for n in start if n in defs]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo += [u for *_, node in defs[name] for u in _names([node])
                         if u in defs]
        return seen

    traced = {attr_path.split(".")[0]
              for _, _, attr_path in _tracer_targets()}
    from_cli, reached = reach(roots), reach(roots | traced)
    listed = [f"{module}:{line} {name}" + (" (traced)" * (name in reached))
              for module, line, name in sorted(
                  (module, line, name) for name, nodes in defs.items()
                  for module, line, _ in nodes if name not in from_cli)]
    assert reached == set(defs), "no command reaches " + ", ".join(listed)


def test_package_never_imports_test_code():
    # under pytest tests/ is on sys.path, so an import of tests/reference.py
    # from the package would pass every test and fail once installed
    src = Path(fhnspde.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in mods
                      if m.split(".")[0] in ("reference", "tests")]
    assert not found, found


FFT_TRANSFORMS = {"rfft", "irfft", "fft", "ifft", "rfftn", "irfftn", "fftn",
                  "ifftn"}


def test_only_lattice_calls_numpy_fft():
    # noise.Lattice holds the package's one spatial transform pair; a
    # transform written out anywhere else is a second copy of the mode
    # layout (frequency helpers such as fftfreq are not transforms)
    src = Path(fhnspde.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(n) for c in ast.walk(tree)
                  if isinstance(c, ast.ClassDef) and c.name == "Lattice"
                  for n in ast.walk(c)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and (node.module or "").startswith("numpy.fft"):
                found.append(f"{path.name}:{node.lineno} from numpy.fft")
            if isinstance(node, ast.Call) and id(node) not in inside \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in FFT_TRANSFORMS \
                    and isinstance(node.func.value, ast.Attribute) \
                    and node.func.value.attr == "fft":
                found.append(f"{path.name}:{node.lineno} {node.func.attr}")
    assert not found, found
