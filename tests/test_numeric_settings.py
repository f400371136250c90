"""One check for every numeric setting.

Every int, float and bool field of the five settings records, the
``horizon`` of a rollout and of an aSLIP simulation, and ``scan
--parallel`` are tried on the values of ``VALUES``.  ``numeric_parity.json``
holds, for each setting and value, the outcome at commit 5e22c1f, before
the settings shared one check: null where the value was accepted, else the
message it was rejected with.  Each value must be accepted or rejected as
it was there.  A rejection that came from the setting's own numeric check
(its message began "<name> must be") now reads "<name> must be
<requirement>, got <value!r>"; any other rejection keeps its message.

Run this file as a script, with the checkout's ``src`` on PYTHONPATH, to
print the table of that checkout.
"""

import contextlib
import functools
import io
import json
import math
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from jumprom import cli
from jumprom.aslip import AslipParams, AslipState, simulate_aslip
from jumprom.errors import ValidationError
from jumprom.pipeline import TrainingConfig
from jumprom.rollout import RolloutConfig, rollout_full
from jumprom.sindy import FunctionLibrarySpec
from jumprom.synthetic import SyntheticSpec, generate
from jumprom.trajectory_data import Phase, process_dataset

TABLE = Path(__file__).with_name("numeric_parity.json")

VALUES = {"True": True, "False": False, "None": None, "'1'": "1", "nan": math.nan,
          "inf": math.inf, "-inf": -math.inf, "-1": -1, "-0.5": -0.5, "0": 0, "0.5": 0.5,
          "1": 1, "2": 2, "10**400": 10**400}

RECORDS = {cls.__name__: cls for cls in
           (TrainingConfig, FunctionLibrarySpec, RolloutConfig, AslipParams, SyntheticSpec)}

# What each setting must be; None where its check is not numeric
# (noise_sigma is a number or a mapping, checked as a noise level).
REQUIREMENTS = {
    "TrainingConfig.latent_dim": "an integer >= 1",
    "TrainingConfig.seed": "an integer",
    "TrainingConfig.standardize": "true or false",
    "TrainingConfig.decoder_ridge": "a finite number >= 0",
    "TrainingConfig.stlsq_threshold": "a finite number >= 0",
    "TrainingConfig.stlsq_ridge": "a finite number > 0",
    "TrainingConfig.stlsq_max_iters": "an integer >= 0",
    "TrainingConfig.latent_accel_weight": "a finite number >= 0",
    "TrainingConfig.decoded_accel_weight": "a finite number >= 0",
    "TrainingConfig.boundary_trim": "an integer >= 0",
    "TrainingConfig.selection_lambda": "a finite number >= 0",
    "FunctionLibrarySpec.poly_degree": "an integer >= 0",
    "FunctionLibrarySpec.include_constant": "true or false",
    "FunctionLibrarySpec.include_sin_states": "true or false",
    "FunctionLibrarySpec.include_sin_velocities": "true or false",
    "FunctionLibrarySpec.include_inputs": "true or false",
    "RolloutConfig.step_rate": "a finite number > 0",
    "RolloutConfig.reset_interval": "an integer >= 0",
    "RolloutConfig.rk4_substeps": "an integer >= 1",
    "AslipParams.k_s": "a finite number > 0",
    "AslipParams.m": "a finite number > 0",
    "AslipParams.g": "a finite number > 0",
    "SyntheticSpec.lift_seed": "an integer >= 0",
    "SyntheticSpec.n_jumps": "an integer >= 1",
    "SyntheticSpec.dt": "a finite number > 0",
    "SyntheticSpec.noise_sigma": None,
    "rollout.horizon": "an integer >= 1",
    "aslip.horizon": "an integer >= 1",
    "scan.--parallel": "an integer >= 1",
}

_SPEC = dict(phase_durations=((Phase.CONTACT, 5),), split_counts=(1, 0, 0), lift_seed=0,
             n_jumps=1)


@functools.cache
def _recorded():
    """A small truth model and its one processed jump."""
    spec = SyntheticSpec(**_SPEC)
    dataset, truth = generate(spec)
    return truth, process_dataset(dataset).jumps[0], spec.dt


def _scan(value, tmp):
    """``scan --parallel str(value)`` on a missing dataset: the message of
    its --parallel check, the parser's exit, or None once past the check."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(["scan", "--dataset", str(Path(tmp) / "missing"),
                             "--out", str(Path(tmp) / "out"), "--parallel", str(value)])
    except SystemExit as e:
        return f"exit {e.code}"
    line = err.getvalue().strip()
    assert code == 1, line   # the missing dataset fails every run past the check
    prefix = "ERROR E_VALIDATE: --parallel"
    return line.removeprefix("ERROR E_VALIDATE: ") if line.startswith(prefix) else None


def _outcome(target, value, tmp):
    """None where ``target`` accepts ``value``, else the rejection's message."""
    owner, name = target.split(".", 1)
    if owner == "scan":
        return _scan(value, tmp)
    try:
        if owner == "rollout":
            truth, jump, dt = _recorded()
            rollout_full(truth, jump, RolloutConfig(step_rate=1.0 / dt, integrator="fixed_rk4"),
                         horizon=value)
        elif owner == "aslip":
            state = AslipState(b=np.array([0.0, 0.0, 0.27]), db=np.zeros(3), foot=np.zeros(3),
                               phase=Phase.CONTACT)
            simulate_aslip(AslipParams(), state, None, (Phase.CONTACT,) * 3, value, 0.002,
                           integrator="fixed_rk4")
        elif owner == "SyntheticSpec":
            counts = {"split_counts": (value, 0, 0)} if name == "n_jumps" else {}
            SyntheticSpec(**{**_SPEC, **counts, name: value})
        else:
            RECORDS[owner](**{name: value})
    except ValidationError as e:
        return str(e)
    return None


def table(tmp):
    return {target: {label: _outcome(target, value, tmp) for label, value in VALUES.items()}
            for target in REQUIREMENTS}


def test_every_numeric_field_is_in_the_table():
    numeric = {f"{owner}.{f.name}" for owner, cls in RECORDS.items() for f in fields(cls)
               if f.type in ("int", "float", "bool") or f.name == "noise_sigma"}
    assert numeric == {t for t in REQUIREMENTS if t.split(".")[0] in RECORDS}
    recorded = json.loads(TABLE.read_text())
    assert set(recorded) == set(REQUIREMENTS)
    assert all(set(outcomes) == set(VALUES) for outcomes in recorded.values())


@pytest.mark.parametrize("target", REQUIREMENTS)
def test_accepts_and_rejects_as_before_in_one_wording(target, tmp_path):
    name = target.split(".", 1)[1]
    before = json.loads(TABLE.read_text())[target]
    for label, value in VALUES.items():
        now = _outcome(target, value, tmp_path)
        if before[label] is None:
            assert now is None, (label, now)
        elif before[label].startswith(f"{name} must be"):
            assert now == f"{name} must be {REQUIREMENTS[target]}, got {value!r}", label
        else:
            assert now == before[label], label


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = table(tmp)
    sys.stdout.write("{\n" + ",\n".join(f"  {json.dumps(t)}: {json.dumps(o)}"
                                        for t, o in rows.items()) + "\n}\n")
