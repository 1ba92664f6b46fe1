"""Tests of the benchmark's own machinery: span arithmetic, the tracer's
patching and restoring, and the output checks.

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import tracer  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_times_of_nested_spans():
    #  a [0, 10]
    #    b [1, 4]
    #      c [2, 3]
    #    b [5, 9]
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["b", 5.0, 9.0, 0, None]]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    m = tracer.layer_metrics(spans, names=("a", "b", "c", "d"))
    assert m == {"a.self_s": 3.0, "a.calls": 1, "b.self_s": 6.0,
                 "b.calls": 2, "c.self_s": 1.0, "c.calls": 1,
                 "d.self_s": 0.0, "d.calls": 0}


@pytest.fixture
def synthetic(monkeypatch):
    """A fake ``fhnspde`` module with nested and recursive callables, a
    second module holding its own reference, and a clock that ticks 1."""
    mod = types.ModuleType("fhnspde._synthetic")
    other = types.ModuleType("fhnspde._synthetic_user")
    exec("def depth(n):\n"
         "    return 0 if n == 0 else 1 + depth(n - 1)\n"
         "def leaf():\n"
         "    return 1\n"
         "def outer():\n"
         "    return leaf() + depth(3) + leaf()\n", mod.__dict__)
    other.leaf = mod.leaf
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    monkeypatch.setitem(sys.modules, other.__name__, other)
    ticks = itertools.count()
    monkeypatch.setattr(tracer.time, "perf_counter",
                        lambda: float(next(ticks)))
    targets = (("x.outer", mod.__name__, "outer"),
               ("x.leaf", mod.__name__, "leaf"),
               ("x.depth", mod.__name__, "depth"))
    return mod, other, targets


def test_tracer_self_time_on_nested_and_recursive_calls(synthetic):
    mod, other, targets = synthetic
    with tracer.Tracer(targets) as tr:
        assert mod.outer() == 5
        assert other.leaf() == 1          # the second binding is wrapped too
    names = [s[0] for s in tr.spans]
    # recursion folds into the outermost depth() span
    assert names == ["x.outer", "x.leaf", "x.depth", "x.leaf", "x.leaf"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0, 0, -1]
    # ticks: outer 0..7, leaf 1..2, depth 3..4, leaf 5..6, leaf 8..9
    assert tr.spans[0][1:3] == [0.0, 7.0]
    m = tracer.layer_metrics(tr.spans, names=("x.outer", "x.leaf",
                                              "x.depth"))
    assert m["x.outer.self_s"] == 4.0
    assert m["x.leaf.self_s"] == 3.0 and m["x.leaf.calls"] == 3
    assert m["x.depth.self_s"] == 1.0 and m["x.depth.calls"] == 1
    total = sum(tracer.self_times(tr.spans))
    assert total == 7.0 + 1.0             # the two root spans


def test_tracer_restores_on_exception(synthetic):
    mod, other, targets = synthetic
    before = (mod.outer, mod.leaf, mod.depth, other.leaf)
    with pytest.raises(TypeError):
        with tracer.Tracer(targets):
            assert mod.leaf is not before[1]
            mod.depth("not a number")
    assert (mod.outer, mod.leaf, mod.depth, other.leaf) == before


# ---------------------------------------------------------------------------
# the real package: every binding wrapped, every binding restored
# ---------------------------------------------------------------------------

def _bindings() -> dict:
    import fhnspde.cli  # noqa: F401  (loads every layer module)
    out = {}
    for m in tracer._package_modules():
        for attr, val in vars(m).items():
            out[(m.__name__, attr)] = val
            if isinstance(val, type) and val.__module__ == m.__name__:
                for k, v in vars(val).items():
                    out[(m.__name__, attr, k)] = v
    return out


def test_traced_run_restores_every_binding(tmp_path, monkeypatch):
    import fhnspde.cli
    import fhnspde.kernels
    import fhnspde.solver
    before = _bindings()
    monkeypatch.setenv("FHNSPDE_OUT", str(tmp_path))
    with tracer.Tracer() as tr:
        # the solver and the cli keep their own references
        assert fhnspde.cli.kernel_constants \
            is not before[("fhnspde.kernels", "kernel_constants")]
        assert fhnspde.solver.sample_white_noise \
            is not before[("fhnspde.noise", "sample_white_noise")]
        assert fhnspde.solver.Stepper.nonlinearity \
            is not before[("fhnspde.solver", "Stepper", "nonlinearity")]
        rc = fhnspde.cli.main(["renorm-eq", "--dim", "2",
                               "--F", "u - u^3 - v"])
    assert rc == 0
    assert [s[0] for s in tr.spans][:2] == [
        "cli.main", "renorm.renormalized_nonlinearity"]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_noise_bytes_are_computed_from_lattice_shapes():
    sweep = [["solver.loop", 0, 1, -1, "epsilon_sweep"],
             ["noise.sample_white_noise", 0, 1, 0, [10, 4, 4]]]
    # real 10*16*8 bytes + complex rfft 10*4*3*16 bytes
    assert tracer.materialised_noise_mb(sweep) * 2 ** 20 == 1280 + 1920
    run = [["solver.loop", 0, 1, -1, "run"],
           ["noise.sample_white_noise", 0, 1, 0, [10, 4, 4]],
           ["noise.mollify_noise", 0, 1, 0, [10, 4, 4]]]
    assert tracer.materialised_noise_mb(run) * 2 ** 20 \
        == 1280 + 2 * 1280 + 1920


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _constants_ctx(tmp_path, consts: dict) -> workloads.Context:
    ctx = workloads.prepare("constants_d3", "quick", 0, tmp_path)
    rd = ctx.out_dir("constants") / "constants" / "stamp-0"
    rd.mkdir(parents=True)
    manifest = {"constants": {
        key: {"C1": v["C1"], "C2": v["C2"],
              "I": {k: x for k, x in v.items() if k.startswith("I")}}
        for key, v in consts.items()}}
    (rd / "manifest.json").write_text(json.dumps(manifest))
    ctx.results["constants"] = 0
    return ctx


REF = {"eps=0.0625": {"C1": 1.8257553964912, "C2": 0.0076981113287,
                      "I00": 4.96891638126e-05, "I11": 1.6546691821e-06}}


def _failed(ops) -> int:
    return sum(not op.ok for op in ops)


def test_matching_reference_passes(tmp_path):
    ctx = _constants_ctx(tmp_path, REF)
    ops, info = workloads.check(ctx, {"fixed": {"constants": REF},
                                      "seeds": {}})
    assert _failed(ops) == 0 and len(ops) == 1 and info == []


def test_perturbed_reference_value_fails(tmp_path):
    ctx = _constants_ctx(tmp_path, REF)
    bad = json.loads(json.dumps(REF))
    bad["eps=0.0625"]["I11"] *= 1 + 1e-10
    ops, _ = workloads.check(ctx, {"fixed": {"constants": bad},
                                   "seeds": {}})
    assert _failed(ops) == 1
    assert "I11" in ops[0].problems[0]


def test_nonzero_exit_and_raised_operations_fail(tmp_path):
    ctx = workloads.prepare("symbolic_d3", "quick", 0, tmp_path)
    ctx.errors["enumerate"] = "RuntimeError: boom"
    ctx.results.update({op: 0 for op, _ in workloads.RENORM_EQ})
    ctx.results["koper_d3"] = 1
    ops, _ = workloads.check(ctx, None)
    failed = {op.name for op in ops if not op.ok}
    assert failed == {"enumerate", "coproducts", "koper_d3"}


def _converge_ctx(tmp_path, d_l2: float, checksum: str):
    ctx = workloads.prepare("converge_d2", "quick", 7, tmp_path)
    rd = ctx.out_dir("converge") / "converge" / "stamp-4"
    rd.mkdir(parents=True)
    rows = ["mode,channel,eps,D_sup,D_l2"]
    for mode in ("renormalised", "unrenormalised"):
        for ch in ("u", "v", "phi"):
            for i, eps in enumerate(("0.25", "0.125", "0.0625")):
                rows.append(f"{mode},{ch},{eps},{1.5 + i},{d_l2 - i / 10}")
    (rd / "converge.csv").write_text("\n".join(rows) + "\n")
    (rd / "manifest.json").write_text(json.dumps(
        {"noise_checksum": checksum}))
    ctx.results["converge"] = 0
    return ctx


def test_seed_dependent_checks(tmp_path):
    good = workloads.extract(_converge_ctx(tmp_path / "a", 0.5, "ab" * 32))
    ref = {"fixed": {}, "seeds": {str(workloads.CONVERGE_SEED):
                                  good["seed"]}}
    ops, info = workloads.check(_converge_ctx(tmp_path / "b", 0.5,
                                              "ab" * 32), ref)
    assert _failed(ops) == 0
    assert any("info (not a check)" in line for line in info)
    # D off by more than the CSV's 10 digits, or another noise realisation
    bad = ((0.5 * (1 + 1e-7), "ab" * 32), (0.5, "cd" * 32))
    for k, (d_l2, checksum) in enumerate(bad):
        ops, _ = workloads.check(_converge_ctx(tmp_path / f"bad{k}", d_l2,
                                               checksum), ref)
        assert _failed(ops) == 1
    # a seed without a reference runs only the seed-independent checks
    ops, info = workloads.check(_converge_ctx(tmp_path / "c", 0.5,
                                              "cd" * 32),
                                {"fixed": {}, "seeds": {}})
    assert _failed(ops) == 0
    assert any("no reference for noise seed 4" in line for line in info)
