"""Package-level invariants of the public API."""

import ast
import functools
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fhnspde
import fhnspde.cli


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


def test_cli_import_skips_numpy_random():
    # numpy.random costs 10-14 ms and 2 MB at start-up; noise._raw_words
    # loads it with the first noise draw, so the commands that draw none
    # (constants, verify-bounds, symbols, coproduct, renorm-eq) never do
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import sys, fhnspde.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]


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

    # sympy, too, is a test oracle only
    assert names(project["dependencies"]) == {"numpy"}
    assert {"scipy", "sympy"} <= names(
        project["optional-dependencies"]["test"])


def test_no_command_imports_sympy(tmp_path, monkeypatch):
    # sympy is a test oracle only (about 0.25 s and 32 MB at start-up): with
    # its import blocked, every command exits as it does here, where sympy
    # is importable.  The numeric commands (constants in d = 3, a d = 3 run
    # and a d = 2 sweep) leave no scipy module behind either, nor numpy.ma,
    # which np.unique imports when called without return_*.  The commands
    # that draw no noise (constants and the others) start no thread, and no
    # command loads concurrent.futures
    root = Path(__file__).resolve().parents[1]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nn_space = 16\ndt = 1e-4\nt_end = 2e-4\n"
                   "[system]\ndim = {dim}\nF = u - u^3 - v\n"
                   "[noise]\neps = 0.25\n"
                   "[sweep]\neps_list = 2^-2\nt_star = 2e-4\n")
    d3, d2 = tmp_path / "d3.cfg", tmp_path / "d2.cfg"
    d3.write_text(cfg.read_text().format(dim=3))
    d2.write_text(cfg.read_text().format(dim=2))
    numeric = [["constants", "--dim", "3", "--eps-list", "2^-4"],
               ["simulate", "--config", str(d3)],
               ["converge", "--config", str(d2)]]
    # the renorm-eq cases are perfbench's symbolic_d3 ones
    others = [["symbols", "--dim", "3", "--cutoff", "3/2", "--channels", "2"],
              ["coproduct", "I(Xi)^2*I(I(Xi)^3)", "--dim", "3"],
              ["verify-bounds", "--dim", "3"]] + [
        ["renorm-eq", "--dim", dim, "--F", F] + channels
        for dim, F, channels in (("2", "u - u^3 - v", []),
                                 ("3", "u - u^3 - v", []),
                                 ("3", "u - u^3 + u^2*v", []),
                                 ("3", "3*u + v1 - u^3",
                                  ["--channels", "2"]))]
    result = tmp_path / "result.json"
    code = (
        "import json, sys, threading\n"
        "sys.modules['sympy'] = None\n"
        "from fhnspde.cli import main\n"
        "started, start = [], threading.Thread.start\n"
        "threading.Thread.start = lambda t: started.append(1) or start(t)\n"
        f"numeric, others = {numeric!r}, {others!r}\n"
        "rcs = [main(argv) for argv in numeric[:1]]\n"
        "quiet = [len(started), threading.active_count()]\n"
        "rcs += [main(argv) for argv in numeric[1:]]\n"
        "left = [m for m in sys.modules\n"
        "        if m.startswith('scipy') or m == 'numpy.ma']\n"
        "started.clear()\n"
        "rcs += [main(argv) for argv in others]\n"
        "quiet += [len(started), threading.active_count(),\n"
        "          'concurrent.futures' in sys.modules]\n"
        f"open({str(result)!r}, 'w').write(json.dumps([rcs, left, quiet]))\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               FHNSPDE_OUT=str(tmp_path / "blocked"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True)
    rcs, left, quiet = json.loads(result.read_text())
    monkeypatch.setenv("FHNSPDE_OUT", str(tmp_path / "here"))
    assert rcs == [fhnspde.cli.main(argv) for argv in numeric + others]
    assert left == []
    assert quiet == [0, 1, 0, 1, False]


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


def _names(parts) -> tuple[set[str], set[str]]:
    """(every Name id and Attribute.attr, the Attribute.attrs alone) under
    the given nodes, annotations (of arguments, returns and annotated
    assignments) left out."""
    ids, attrs, todo = set(), set(), list(parts)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            ids.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                todo += [v for v in (value if isinstance(value, list)
                                     else [value]) if isinstance(v, ast.AST)]
    return ids | attrs, attrs


def _unreached(modules, names, attrs) -> list[str]:
    """Top-level definitions and class members that the roots do not reach,
    as "module:line name" or "module:line Class.member".

    ``modules`` maps a module name to its (source, namespace); ``names``
    and ``attrs`` are the root names and attribute names, and every
    module-level statement is a root.  A definition is reached when its
    name is a Name or an Attribute.attr in reached code; a class's code is
    its decorators, bases and the body statements other than its members.
    A member (method, property, classmethod or staticmethod) is reached
    when its class is and its name is an Attribute.attr in reached code.
    A dunder, a sunder (a protocol hook an outside library calls, as sympy
    calls ``_sympy_``), and an override of a method of a base class from
    outside ``modules`` (a hook the base calls, as argparse calls
    ``error``), go with their class.
    """
    names, attrs = set(names), set(attrs)
    own = {namespace["__name__"] for _, namespace in modules.values()}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    entries = {}    # (module, label) -> (line, class key or None, name, code)
    for stem, (source, namespace) in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, functions):
                entries[stem, node.name] = (node.lineno, None, node.name,
                                            [node])
            elif isinstance(node, ast.ClassDef):
                hooks = {h for base in namespace[node.name].__mro__[1:]
                         if base.__module__ not in own for h in dir(base)}
                code = node.decorator_list + node.bases + node.keywords
                for m in node.body:
                    if not isinstance(m, functions) or m.name in hooks \
                            or m.name[0] == m.name[-1] == "_":
                        code.append(m)
                    else:
                        entries[stem, f"{node.name}.{m.name}"] = (
                            m.lineno, (stem, node.name), m.name, [m])
                entries[stem, node.name] = (node.lineno, None, node.name,
                                            code)
            else:
                new_names, new_attrs = _names([node])
                names |= new_names
                attrs |= new_attrs
    reached, grown = set(), True
    while grown:
        grown = False
        for key, (_, owner, name, code) in entries.items():
            if key not in reached and (name in names if owner is None
                                       else owner in reached
                                       and name in attrs):
                reached.add(key)
                new_names, new_attrs = _names(code)
                names |= new_names
                attrs |= new_attrs
                grown = True
    return [f"{stem}:{entries[stem, label][0]} {label}"
            for stem, label in sorted(entries.keys() - reached)]


def test_every_definition_is_reached_from_the_cli():
    # code that no command reaches is carried for the tests only and lives
    # in tests/reference.py; roots are cli.main, every module-level
    # statement (they run at import) and every part of the attribute paths
    # perfbench's tracer wraps by name.  Matching by name over-approximates
    # the call graph, which is the safe side; it cannot see a member whose
    # name is also an attribute of another class, such as a Combo.text
    # (CubicPolynomial.text and the hopf classes' text), nor a dunder or a
    # sunder hook, which goes with its class whether or not anything calls
    # it: a __call__ that only tests call (CubicPolynomial had one) passes,
    # and so does Scalar._sympy_, which only sympy calls
    src = Path(fhnspde.__file__).resolve().parent
    modules = {}
    for path in sorted(src.glob("*.py")):
        module = fhnspde if path.stem == "__init__" else \
            importlib.import_module(f"fhnspde.{path.stem}")
        modules[path.stem] = (path.read_text(), vars(module))
    paths = [attr_path.split(".") for *_, attr_path in _tracer_targets()]
    missing = _unreached(modules, {"main"} | {p[0] for p in paths},
                         {a for p in paths for a in p[1:]})
    assert not missing, "no command reaches " + ", ".join(missing)


GUARD_EXAMPLE = """
import argparse


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit(message)


class Box:
    def __init__(self):
        self.parser = Parser()

    def used(self):
        return 1

    def unused(self):
        return 2

    def _private(self):
        return 3

    def _sympy_(self):
        return 4


def main():
    return Box().used()
"""


def test_reachability_guard_sees_members():
    # the guard flags a method nothing calls, private or not, accepts one
    # reached only as obj.method, an override of an outside base class's
    # hook and a sunder hook that an outside library calls
    module = types.ModuleType("example")
    exec(compile(GUARD_EXAMPLE, "example", "exec"), vars(module))
    missing = _unreached({"example": (GUARD_EXAMPLE, vars(module))},
                         {"main"}, set())
    assert [m.split()[1] for m in missing] == ["Box._private", "Box.unused"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d).split("(")[0] == "dataclass"
               for d in node.decorator_list)


def _fields(node: ast.ClassDef) -> tuple[list[str], set[str]]:
    """A dataclass's __init__ fields in order, and those with a default;
    ClassVars are not fields."""
    order, defaulted = [], set()
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) \
                or not isinstance(stmt.target, ast.Name) \
                or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        name, value = stmt.target.id, stmt.value
        if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
            keys = {k.arg: k.value for k in value.keywords}
        else:
            keys = {} if value is None else {"default": value}
        if not (isinstance(keys.get("init"), ast.Constant)
                and keys["init"].value is False):
            order.append(name)
        if keys.keys() & {"default", "default_factory"}:
            defaulted.add(name)
    return order, defaulted


def _splat_keys(value, scope) -> list:
    """The names a ``**value`` splat can set: the keys of a dict display,
    those of every dict display in its function (or module) for a name,
    and none, which stands for every name, when there is none to read."""
    displays = [value] if isinstance(value, ast.Dict) else \
        [n for n in ast.walk(scope) if isinstance(n, ast.Dict)] \
        if isinstance(value, ast.Name) else []
    return [k.value for d in displays for k in d.keys
            if isinstance(k, ast.Constant)]


def _default_uses(package: dict, callers) -> dict:
    """``{name: (a call sets it, something else sets it, a call leaves it
    to its default)}`` for each defaulted parameter and dataclass field of
    the package, named "module:line name(param)" or "module:line
    Class.field".

    ``package`` maps a module name to its source; ``callers`` are the
    sources whose code counts, the package's among them.  As in
    :func:`_unreached`, a call reaches a definition by name: a function or
    method by its own, a class's ``__init__`` by ``__init__`` and by the
    name of the class or of a subclass that inherits it, a dataclass's
    generated one by the class's name, and a ``__call__`` by any call.  A
    call sets a parameter by keyword or by position (a method's counted
    after self or cls); a ``*`` splat may set its position and every later
    one, a ``**`` splat the keys of a dict display for sure, and otherwise
    may set the names of :func:`_splat_keys` (every name when it finds
    none).  A call leaves a parameter to its default unless it sets it for
    sure.  A field is also set by a keyword of a ``replace`` call and by an
    assignment to an attribute of its name (or a ``setattr`` of it).  A
    call of a function from inside itself that passes one of its
    parameters on unchanged neither sets nor leaves it.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    # one tree per source text, so a package def is the same node object
    # in the package's trees and in its callers'
    parse = functools.lru_cache(maxsize=None)(ast.parse)
    trees = {stem: parse(source) for stem, source in package.items()}
    classes = [c for tree in trees.values() for c in ast.walk(tree)
               if isinstance(c, ast.ClassDef)]
    bases = {c.name: {ast.unparse(b) for b in c.bases} for c in classes}
    own_init = {c.name for c in classes for m in c.body
                if isinstance(m, functions) and m.name == "__init__"}
    # (label, names reached by, positional params, all params, defaulted,
    # is a dataclass, the def node)
    defs = []
    for stem, tree in trees.items():
        methods = {id(m): c for c in ast.walk(tree)
                   if isinstance(c, ast.ClassDef) for m in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                order, defaulted = _fields(node)
                defs.append((f"{stem}:{node.lineno} {node.name}.",
                             set() if node.name in own_init else {node.name},
                             order, set(order), defaulted, True, None))
            if not isinstance(node, functions):
                continue
            a, cls = node.args, methods.get(id(node))
            positional = [p.arg for p in a.posonlyargs + a.args]
            if cls is not None and "staticmethod" not in {
                    ast.unparse(d) for d in node.decorator_list}:
                positional = positional[1:]
            defaulted = {p.arg for p in (a.posonlyargs + a.args)[
                len(a.posonlyargs + a.args) - len(a.defaults):]}
            defaulted |= {p.arg for p, v in zip(a.kwonlyargs, a.kw_defaults)
                          if v is not None}
            names = {node.name}
            if node.name == "__init__":
                heirs, grown = {cls.name}, True
                while grown:
                    new = {c for c, bs in bases.items() if bs & heirs
                           and c not in own_init} - heirs
                    heirs |= new
                    grown = bool(new)
                names |= heirs
            label = f"{stem}:{node.lineno} " + (
                f"{cls.name}.{node.name}" if cls else node.name)
            defs.append((label + "(", names, positional,
                         set(positional) | {p.arg for p in a.kwonlyargs},
                         defaulted, False, node))
    calls, assigned = [], set()
    for source in callers:
        tree = parse(source)
        inside = {id(n): f for f in ast.walk(tree)
                  if isinstance(f, functions) for n in ast.walk(f)}
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, (ast.AugAssign,
                                                   ast.AnnAssign)) else []
            assigned |= {t.attr for t in targets
                         if isinstance(t, ast.Attribute)}
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in ("setattr", "__setattr__") and len(node.args) > 1 \
                    and isinstance(node.args[1], ast.Constant):
                assigned.add(node.args[1].value)
            caller = inside.get(id(node))
            # (parameter name, value, set for sure); "**" stands for any
            named = []
            for k in node.keywords:
                keys = [k.arg] if k.arg else _splat_keys(k.value,
                                                         caller or tree)
                certain = k.arg is not None or isinstance(k.value, ast.Dict)
                named += [(key, k.value, certain) for key in keys or ["**"]]
            calls.append((name, node.args, named, caller))
    uses = {}
    for label, names, positional, params, defaulted, fields, fn in defs:
        called, other, left = set(), set(), set()
        if fields:
            other |= defaulted & assigned
        for name, args, named, caller in calls:
            if name == "replace" and fields:
                keys = {key for key, *_ in named}
                other |= params if "**" in keys else keys
            if not (name in names or "__call__" in names):
                continue

            def passed_on(param, value):
                # the function's own call, handing its parameter on
                return fn is not None and caller is fn \
                    and isinstance(value, ast.Name) and value.id == param

            sure, maybe, handed = set(), set(), set()
            for i, arg in enumerate(args):
                if isinstance(arg, ast.Starred):
                    maybe |= set(positional[i:])
                    break
                if i < len(positional):
                    (handed if passed_on(positional[i], arg)
                     else sure).add(positional[i])
            for key, value, certain in named:
                if key == "**":
                    maybe |= params
                elif passed_on(key, value):
                    handed.add(key)
                else:
                    (sure if certain else maybe).add(key)
            called |= sure | maybe
            left |= defaulted - sure - handed
        for p in defaulted:
            uses[label + (f"{p})" if label.endswith("(") else p)] = (
                p in called, p in other, p in left)
    return uses


def _unset_defaults(package: dict, callers) -> list[str]:
    """Defaulted parameters and dataclass fields that nothing sets."""
    return sorted(name for name, (called, other, _)
                  in _default_uses(package, callers).items()
                  if not (called or other))


def _overridden_defaults(package: dict, callers) -> list[str]:
    """Defaulted parameters and dataclass fields that calls set and that no
    call leaves to its default."""
    return sorted(name for name, (called, _, left)
                  in _default_uses(package, callers).items()
                  if called and not left)


def _package_and_callers() -> tuple[dict, list]:
    """The package's sources by module name, and every source of the
    package, its tests and its benchmark."""
    root = Path(__file__).resolve().parents[1]
    package = {p.stem: p.read_text()
               for p in sorted((root / "src" / "fhnspde").glob("*.py"))}
    callers = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in sorted((root / d).rglob("*.py"))]
    return package, callers


def test_every_default_is_set_by_some_call():
    # a default that no call in the package, its tests or its benchmark
    # overrides is a constant written as a knob: it widens the API that
    # every reader must check and restates a choice the code has made
    unset = _unset_defaults(*_package_and_callers())
    assert not unset, "no call sets " + ", ".join(unset)


def test_every_default_is_used_by_some_call():
    # a default that every call overrides is a value no run uses: the
    # callers state the choice, and the default restates it where it can
    # drift; the parameter is required instead
    overridden = _overridden_defaults(*_package_and_callers())
    assert not overridden, "every call sets " + ", ".join(overridden)


PARAM_EXAMPLE = '''
from dataclasses import dataclass, field, replace
from typing import ClassVar


def f(a, b=1, c=2, *, k=3, unset=4, own=5):
    if a:
        return f(a - 1, own=own)
    return a + b + c + k + unset + own


def splat(a, b=1, c=2, *, k=3, m=4):
    return a + b + c + k + m


def g(x=1):
    return x


def relay(**kw):
    return g(**kw)


class Box:
    def __init__(self, size=1, unset=2):
        self.size, self.unset = size, unset

    def grow(self, by=1, unset=2):
        return self.size + by + unset

    @staticmethod
    def make(n=1):
        return Box(n)

    def __call__(self, x, y=0):
        return x + y


class Crate(Box):
    pass


@dataclass
class Spec:
    d: int
    kind: str = "bump"
    width: float = 0.5
    tag: str = ""
    seen: list = field(default_factory=list)
    unset: int = 0
    fixed: ClassVar[float] = 0.25


def main():
    f(1, 2, 3, k=3)
    splat(1, *[2])
    splat(1, **{"k": 3})
    for kw in ({"m": 1},):
        splat(0, **kw)
    relay(x=2)
    Crate(2).grow(3)
    Box.make(2)
    Box()(1, 2)
    s = replace(Spec(1, "gauss"), width=1.0)
    s.tag = "x"
    setattr(s, "seen", [])
'''


def test_parameter_guard_sees_every_way_to_set():
    # the guard flags a default no call sets (a recursive call that hands
    # it on does not set it) and accepts one set by keyword, by position
    # (after self, and on a subclass), through splats of a list, a dict
    # display, a dict display elsewhere in the function and an unread
    # mapping, by replace and by attribute assignment or setattr
    unset = _unset_defaults({"example": PARAM_EXAMPLE}, [PARAM_EXAMPLE])
    assert sorted(u.split()[1] for u in unset) == [
        "Box.__init__(unset)", "Box.grow(unset)", "Spec.unset",
        "f(own)", "f(unset)"]


OVERRIDE_EXAMPLE = '''
from dataclasses import dataclass


def _given(**kw):
    return kw


def always(a, b=1, *, k=2):
    return a + b + k


def once(a, b=1):
    return a + b


def spread(a, b=1, c=2):
    return a + b + c


def given(a, n=1):
    return a + n


def walk(a, depth=0):
    return walk(a - 1, depth) if a else depth


@dataclass
class Spec:
    d: int
    kind: str = "bump"
    tag: str = ""


def main(args):
    always(1, 2, k=3)
    always(0, b=1, **{"k": 4})
    once(1, 2)
    once(1)
    spread(1, 2, 3)
    spread(1, *args)
    given(1, n=3)
    given(1, **_given(n=2))
    walk(3, depth=1)
    Spec(1, "gauss", tag="x")
    Spec(2, kind="bump")
'''


def test_override_guard_sees_every_default_left_in_force():
    # the guard flags a default that every call sets (by position, keyword
    # or a dict display's splat; a recursive call that hands it on does
    # not use it) and accepts one that a call leaves out, by omission, by a
    # * splat that may be short or by a ** splat of a mapping it cannot read
    overridden = _overridden_defaults({"example": OVERRIDE_EXAMPLE},
                                      [OVERRIDE_EXAMPLE])
    assert sorted(o.split()[1] for o in overridden) == [
        "Spec.kind", "always(b)", "always(k)", "walk(depth)"]


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


def test_readme_python_example_prints_what_it_says(capsys):
    # the README's Python API block runs as written, and its counterterm
    # line prints what the comment beside it promises
    readme = Path(__file__).resolve().parents[1] / "README.md"
    [block] = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    [promised] = re.findall(r"^print\(eq\.c0.*#\s*(.*)$", block, re.M)
    exec(compile(block, str(readme), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == promised == "0 -3*C1 + 9*C2 3*C1 - 9*C2"
    assert len(out) == 2 and float(out[1]) > 0
