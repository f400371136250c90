"""Command-line front door for dataset generation, training, and evaluation.

Every command takes an optional JSON config file.  ``_settings`` resolves
the settings of each command the same way, defaults < config file < flags:
it keeps the config keys the command reads (``KEYS``; other keys are
ignored, so one file can serve several commands) and lets each flag given
on the command line override its key (``FLAGS``, from which each command
takes the flags of its keys).  The settings go straight into the typed
records (``TrainingConfig``, ``RolloutConfig``, ``AslipParams``, the
synthetic presets), which check them and default each unset key.  Each run
writes exactly one ``run_manifest.json`` next to its outputs recording the
resolved config, seeds, input/output paths, artifact hashes, and
wall-clock timings.  Outputs are plain delimited text plus the structured
model format, so results diff cleanly under version control.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __about__, _integrators, aslip, pipeline, rollout, synthetic
from .errors import JumpromError, ValidationError
from .pipeline import TrainingConfig, config_from_dict
from .sindy import print_symbolic
from .trajectory_data import (MANIFEST_NAME, _cache_path, _read_manifest, format_row,
                              load_dataset, load_split, process_dataset, process_jump, sample_step)

OUT_ROOT_ENV = "JUMPROM_OUT_ROOT"

PRESETS = {"two_phase": synthetic.two_phase_spec, "three_phase": synthetic.three_phase_spec}

_TRAINING_KEYS = tuple(f.name for f in fields(TrainingConfig))

# The baseline's aSLIP keys and the AslipParams fields they set.
_ASLIP_FIELDS = {"k_s": "k_s", "mass": "m", "l0": "l0", "g": "g"}

# The config keys each command reads.
KEYS = {
    "gen": ("preset", "n_jumps", "lift_seed", "noise_sigma", "dt", "split_counts"),
    "train": _TRAINING_KEYS,
    # the grid sets each cell's latent dimension and seed
    "scan": tuple(k for k in _TRAINING_KEYS if k not in ("latent_dim", "seed"))
    + ("l_values", "seeds"),
    "eval": ("reset_interval", "integrator"),
    "baseline": ("integrator", *_ASLIP_FIELDS),
    # the latent dimension and the library are the model's
    "finetune": tuple(k for k in _TRAINING_KEYS if k not in ("latent_dim", "library")),
}


def _int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


# The flag that overrides each config key, and its parser settings; every
# command that reads the key takes the flag.
FLAGS = {
    "preset": ("--preset", {"choices": list(PRESETS),
                            "help": "dataset preset (default: two_phase)"}),
    "lift_seed": ("--seed", {"type": int, "help": "lift seed of the generated data"}),
    "seed": ("--seed", {"type": int,
                        "help": "recorded only: the encoder is the closed-form PCA fit"}),
    "latent_dim": ("--latent-dim", {"type": int}),
    "stlsq_threshold": ("--threshold", {"type": float}),
    "l_values": ("--l-values", {"type": _int_list, "help": "comma-separated latent dims"}),
    "seeds": ("--seeds", {"type": _int_list, "help": "comma-separated seeds"}),
    "reset_interval": ("--reset-interval", {"type": int}),
    "integrator": ("--integrator", {"choices": _integrators.INTEGRATORS}),
}


def _settings(args):
    """The settings of ``args.command``: its config keys, each overridden by its flag.

    Reads ``--config`` once and keeps only the keys the command reads.  A
    key left unset takes its default from the record it goes into.
    """
    keys = KEYS[args.command]
    payload = {}
    if args.config is not None:
        try:
            payload = json.loads(Path(args.config).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ValidationError(f"cannot read config {args.config}: {e}") from e
        if not isinstance(payload, dict):
            raise ValidationError(f"config {args.config} must hold a JSON object")
    settings = {k: payload[k] for k in keys if k in payload}
    for key, (flag, _) in FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if key in keys and value is not None:
            settings[key] = value
    return settings


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _ManifestWriter:
    def __init__(self, args, out_dir, inputs):
        self.out_dir = out_dir
        self.started = time.time()
        self.record = {
            "command": args.command,
            "config_file": args.config,
            "inputs": {name: str(getattr(args, name)) for name in inputs},
            "outputs": {},
        }

    def add_output(self, path):
        """Record ``path`` as an output; returns its SHA-256."""
        path = Path(path)
        digest = self.record["outputs"][str(path.relative_to(self.out_dir))] = _sha256(path)
        return digest

    def finish(self, resolved_config=None, seeds=()):
        if resolved_config is not None:
            self.record["resolved_config"] = resolved_config
        self.record["seeds"] = list(seeds)
        self.record["wall_clock_s"] = time.time() - self.started
        path = self.out_dir / "run_manifest.json"
        path.write_text(json.dumps(self.record, indent=2, sort_keys=True) + "\n")


def _start(args, *inputs):
    """Create the run's output directory; return it and the run's manifest.

    ``inputs`` names the path arguments the manifest records as inputs.
    """
    if args.out:
        out = Path(args.out)
    elif os.environ.get(OUT_ROOT_ENV):
        out = Path(os.environ[OUT_ROOT_ENV]) / args.command
    else:
        raise ValidationError(f"no --out given and {OUT_ROOT_ENV} is not set")
    out.mkdir(parents=True, exist_ok=True)
    return out, _ManifestWriter(args, out, inputs)


def _load_processed(path):
    return process_dataset(load_dataset(path))


def _load_test_jumps(path):
    """The dataset's meta and its test jumps, processed, each with its
    manifest index; the files of the other splits are not read."""
    meta, jumps = load_split(path, "test")
    if not jumps:
        raise ValidationError("dataset has no test split")
    return meta, [(idx, process_jump(idx, jump, meta.m)) for idx, jump in jumps]


def _write_series(path, result):
    """One rollout, a row per sample: t, q_pred, q_true and the error norm."""
    d = result.q_pred.shape[1]
    header = ["t"] + [f"q_pred_{i}" for i in range(d)] + [f"q_true_{i}" for i in range(d)] + ["err"]
    rows = np.column_stack([result.timestamps, result.q_pred, result.q_true, result.error_norm])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")


def _write_results(out, manifest, table, header, series_prefix, results, columns):
    """Write each (jump, label, RolloutResult) of ``results`` as a series file
    and as one row ``jump,label,columns(result)`` of the table."""
    table_path = out / table
    with open(table_path, "w") as fh:
        fh.write(header + "\n")
        for idx, label, result in results:
            series_path = out / f"{series_prefix}_{idx:03d}_{label}.csv"
            _write_series(series_path, result)
            manifest.add_output(series_path)
            fh.write(f"{idx},{label}," + format_row(columns(result)) + "\n")
    manifest.add_output(table_path)
    return table_path


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args):
    settings = _settings(args)
    preset = settings.pop("preset", "two_phase")
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ValidationError(f"unknown preset {preset!r}")
    spec = PRESETS[preset](**settings)
    out, manifest = _start(args)
    dataset, _ = synthetic.generate(spec, out_dir=out)
    # the files this run wrote, not others already in the directory
    manifest.add_output(out / MANIFEST_NAME)
    manifest.add_output(out / synthetic.GROUND_TRUTH_NAME)
    for name, _ in _read_manifest(out)[1]:   # each jump file, then its table cache
        digest = manifest.add_output(out / name)
        manifest.add_output(_cache_path(out / name, digest))
    manifest.finish(resolved_config={"preset": preset, **settings}, seeds=[spec.lift_seed])
    print(f"wrote {dataset.n_jumps} jumps to {out}")
    return 0


def cmd_train(args):
    config = config_from_dict(_settings(args))
    out, manifest = _start(args, "dataset")
    dataset = _load_processed(args.dataset)
    model = pipeline.run_pipeline(dataset, config)
    for pm in model.phases:
        print(f"[{pm.phase}]")
        for line in print_symbolic(pm):
            print(f"  {line}")
    model_path = out / "model.txt"
    pipeline.save_model(model, model_path)
    manifest.add_output(model_path)
    manifest.finish(resolved_config=pipeline.config_to_dict(config), seeds=[config.seed])
    print(f"model written to {model_path}")
    return 0


def cmd_scan(args):
    if args.parallel < 1:
        raise ValidationError(f"--parallel must be >= 1, got {args.parallel}")
    settings = _settings(args)
    l_values = settings.pop("l_values", [1, 2, 3, 4, 5, 6, 7, 8])
    seeds = settings.pop("seeds", [0, 1, 2, 3, 4])
    config = config_from_dict(settings)
    out, manifest = _start(args, "dataset")
    dataset = _load_processed(args.dataset)
    report = pipeline.model_selection_scan(dataset, l_values, seeds, config,
                                           workers=args.parallel)
    report_path = out / "report.csv"
    pipeline.write_selection_report(report, report_path)
    manifest.add_output(report_path)
    manifest.record["workers"] = min(args.parallel, len(report.rows))   # a row per cell
    manifest.finish(resolved_config=pipeline.config_to_dict(config), seeds=seeds)
    for l, mean, std in report.aggregates():
        print(f"l={l}: L_mod = {mean:.6f} +/- {std:.6f}")
    print(f"report written to {report_path}")
    return 0


def cmd_eval(args):
    settings = _settings(args)
    out, manifest = _start(args, "dataset", "model")
    model = pipeline.load_model(args.model)
    meta, test_jumps = _load_test_jumps(args.dataset)
    config = rollout.RolloutConfig(step_rate=1.0 / meta.dt, **settings)

    # every rollout runs before any file is written, so a failing one leaves no partial table
    results = rollout.rollout_jumps(model, test_jumps, config)

    _write_results(out, manifest, "metrics.csv", "jump,mode,mean_rmse", "rollout", results,
                   lambda r: [r.rmse.mean()])
    manifest.finish()
    for idx, mode, r in results:
        print(f"jump {idx} [{mode}]: mean RMSE {float(r.rmse.mean()):.6g}")
    return 0


def cmd_baseline(args):
    settings = _settings(args)
    params = aslip.AslipParams(**{field: settings.pop(key) for key, field in _ASLIP_FIELDS.items()
                                  if key in settings})
    out, manifest = _start(args, "dataset", *(("model",) if args.model else ()))
    meta, test_jumps = _load_test_jumps(args.dataset)
    model = pipeline.load_model(args.model) if args.model else None
    config = rollout.RolloutConfig(step_rate=1.0 / meta.dt, **settings)
    base = slice(meta.m, meta.m + 3)   # base position in q, base velocity in dq

    # every rollout runs before any file is written, so a failing one leaves no partial table
    try:
        aslip_rows = _aslip_results(params, test_jumps, base, config.integrator)
    except JumpromError as error:
        failed, error = _first_aslip_failure(params, test_jumps, base, config.integrator, error)
        if model is not None:   # the learned rollout of an earlier jump fails first
            rollout.rollout_jumps(model, test_jumps[:failed], config)
        raise error from None
    learned = rollout.rollout_jumps(model, test_jumps, config) if model is not None else []
    compared = []
    for i, (idx, jump) in enumerate(test_jumps):
        compared.append((idx, "aslip", aslip_rows[i]))
        if learned:
            compared.append((idx, "learned", _base_result(
                jump.timestamps, learned[i][2].q_pred[:, base], jump.q[:, base],
                aslip_rows[i].phase_schedule)))

    table_path = _write_results(out, manifest, "comparison.csv", "jump,model,rmse_x,rmse_y,rmse_z",
                                "baseline", compared, lambda r: r.rmse)
    manifest.finish()
    print(f"comparison written to {table_path}")
    return 0


def _aslip_results(params, jumps, base, integrator):
    """The aSLIP rollouts of the jumps' base positions, driven by their
    recorded contacts, feet and forces.  Jumps with the same sample step
    are stepped as one stack."""
    stacks, inputs = {}, []
    for i, (_, jump) in enumerate(jumps):
        schedule, feet, force_sum = aslip.aslip_inputs_from_trajectory(jump)
        y0 = np.concatenate([jump.q[0, base], jump.dq[0, base]])
        inputs.append((y0, force_sum / params.m, feet, schedule))
        stacks.setdefault(sample_step(jump.timestamps), []).append(i)
    b_pred = {}
    for dt, rows in stacks.items():
        stepped = aslip.simulate_aslip_stack(params, [inputs[i] for i in rows], dt,
                                             integrator=integrator)
        b_pred.update((i, b) for i, (b, _) in zip(rows, stepped))
    return [_base_result(jump.timestamps, b_pred[i], jump.q[:, base], inputs[i][3])
            for i, (_, jump) in enumerate(jumps)]


def _first_aslip_failure(params, jumps, base, integrator, error):
    """The index of the first jump whose aSLIP rollout fails when run alone,
    and its error; (len(jumps), error) when none does."""
    with warnings.catch_warnings():   # the stacked run has issued its warnings
        warnings.simplefilter("ignore")
        for i, jump in enumerate(jumps):
            try:
                _aslip_results(params, [jump], base, integrator)
            except JumpromError as e:
                return i, e
    return len(jumps), error


def _base_result(timestamps, pred, true, schedule):
    return rollout.RolloutResult(timestamps=timestamps, latent_pred=np.zeros((len(pred), 0)),
                                 q_pred=pred, q_true=true, phase_schedule=tuple(schedule))


def cmd_finetune(args):
    settings = _settings(args)
    out, manifest = _start(args, "dataset", "model")
    model = pipeline.load_model(args.model)
    config = pipeline.fine_tune_config(model, config_from_dict(settings))
    dataset = _load_processed(args.dataset)
    tuned = pipeline.fine_tune(model, dataset, config)
    model_path = out / "model.txt"
    pipeline.save_model(tuned, model_path)
    manifest.add_output(model_path)
    manifest.finish(resolved_config=pipeline.config_to_dict(config), seeds=[config.seed])
    print(f"fine-tuned model written to {model_path}")
    return 0

# ---------------------------------------------------------------------------
# argument parsing

# Each command's help, and whether its ``--model`` is required (None: it
# takes no model).  Every command but gen reads a dataset.  ``main`` runs
# command ``name`` as this module's ``cmd_<name>``, looked up when it runs.
_COMMANDS = {
    "gen": ("generate a synthetic dataset", None),
    "train": ("run the three-stage training pipeline", None),
    "scan": ("model-selection scan over latent dimensions", None),
    "eval": ("roll out a model against recorded test jumps", True),
    "baseline": ("compare against the actuated-SLIP baseline", False),
    "finetune": ("fine-tune an existing model on a new dataset", True),
}


def usable_cpus():
    """The CPUs this process may run on; a scan's default worker count.
    1 where processes cannot fork, since a spawned worker would pickle the
    dataset to start."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no sched_getaffinity (macOS)
        return os.cpu_count() or 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jumprom",
        description="Learn and evaluate reduced-order symbolic models of robot jumps.",
    )
    parser.add_argument("--version", action="version", version=__about__.__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, model) in _COMMANDS.items():
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; a flag given overrides its key")
        p.add_argument("--out", help=f"output directory (default: ${OUT_ROOT_ENV}/<command>)")
        if name != "gen":
            p.add_argument("--dataset", required=True, help="dataset directory")
        if model is not None:
            p.add_argument("--model", required=model,
                           help="model file" if model else "optional learned model to include")
        for key in KEYS[name]:
            if key in FLAGS:
                flag, settings = FLAGS[key]
                p.add_argument(flag, **settings)
    sub.choices["scan"].add_argument(
        "--parallel", type=int, default=usable_cpus(),
        help="processes that run the scan's cells, this one included, at most one per "
             "cell; the report is the same for any count, and 1 scans in this process "
             "alone (default: the usable CPUs)")
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except JumpromError as e:
        print(f"ERROR {e.code}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"ERROR E_IO: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
