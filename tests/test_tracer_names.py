"""The benchmark reaches program functions by name; every name must exist.

``perfbench/tracing.py`` lists in ``LAYERS`` each (module, attribute) it
replaces during a traced run, and its count hooks read attributes of the
results and arguments of those functions.  The benchmark's files also
import program names and read attributes of the program modules they
import.  A rename in the program that leaves a stale entry or attribute
there would crash benchmark runs, which this suite does not otherwise
exercise, so the names and hooks are checked here.  The benchmark's files
are only read, never changed.
"""

import ast
import collections
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from jumprom import rollout
from jumprom.sindy import FunctionLibrarySpec, LatentPhaseData, fit_phase_model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    tracing = _load_tracing()
    assert tracing.LAYERS
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.LAYERS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def _program_attr(module, name):
    """``module.name``, importing it if it is a submodule; None if there is none."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return None


def test_every_name_the_benchmark_imports_exists():
    # each name of a `from jumprom... import`, and each attribute read of
    # an imported program module, such as `synthetic.generate`
    missing = []
    for path in sorted(TRACING.parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "jumprom":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    value = _program_attr(module, alias.name)
                    if value is None:
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
                    elif inspect.ismodule(value):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and _program_attr(modules[node.value.id], node.attr) is None):
                missing.append(f"{path.name}: {modules[node.value.id].__name__}.{node.attr}")
    assert missing == []


def test_count_hooks_read_real_results(clean_bundle, monkeypatch):
    # _count_kron reads library.term_count; _count_rollout reads the rollout
    # config, and its expected row calls must be the rows the RHS evaluates
    tracing = _load_tracing()
    counts = collections.defaultdict(int)
    params, library = clean_bundle.model.autoencoder, FunctionLibrarySpec()
    rng = np.random.default_rng(0)
    xi, dxi, nu = rng.normal(size=(3, 200, 2))
    ddxi = -3.0 * xi - 0.5 * dxi + nu
    data = LatentPhaseData(xi=xi, dxi=dxi, nu=nu, ddxi=ddxi, ddq=ddxi @ params.W_dec.T)
    args = (params, library, [data])
    tracing._count_kron(counts, args, {}, fit_phase_model(*args))
    assert counts["sindy.kron_dim.counted.l2"] == counts["sindy.kron_dim.computed.l2"] == 42

    calls, build_row = [], rollout.build_library_row

    def counted_row(*row_args):
        calls.append(1)
        return build_row(*row_args)

    monkeypatch.setattr(rollout, "build_library_row", counted_row)
    jump = clean_bundle.dataset.jumps[0]
    config = rollout.RolloutConfig(integrator="fixed_rk4", rk4_substeps=2)
    args = (clean_bundle.model, jump, config)
    tracing._count_rollout(counts, args, {"horizon": 30}, rollout.rollout_full(*args, horizon=30))
    assert counts["rollout.steps.fixed_rk4"] == 29
    assert counts["rollout.expected_row_calls.fixed_rk4"] == len(calls) == 4 * 2 * 29
