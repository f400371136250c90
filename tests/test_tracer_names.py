"""The benchmark tracer patches program functions by name; every name must exist.

``perfbench/tracing.py`` lists in ``LAYERS`` each (module, attribute) it
replaces during a traced run, and its count hooks read attributes of the
results and arguments of those functions.  A rename in the program that
leaves a stale entry or attribute there would crash traced benchmark runs,
which this suite does not otherwise exercise, so the names and hooks are
checked here.  The tracer file is only loaded, never changed.
"""

import collections
import importlib
import importlib.util
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
