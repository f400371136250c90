"""Command-line front door for dataset generation, training, and evaluation.

Every command takes an optional JSON config file whose keys mirror the
command-line flags one to one (flags win).  Each run writes exactly one
``run_manifest.json`` next to its outputs recording the resolved config,
seeds, input/output paths, artifact hashes, and wall-clock timings.
Outputs are plain delimited text plus the structured model format, so
results diff cleanly under version control.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __about__, _integrators, aslip, pipeline, rollout, synthetic
from .errors import JumpromError, ValidationError
from .pipeline import TrainingConfig, config_from_dict
from .sindy import print_symbolic
from .trajectory_data import Phase, load_dataset, process_dataset

OUT_ROOT_ENV = "JUMPROM_OUT_ROOT"


def _resolve_out(args, command):
    if args.out:
        return Path(args.out)
    root = os.environ.get(OUT_ROOT_ENV)
    if not root:
        raise ValidationError(f"no --out given and {OUT_ROOT_ENV} is not set")
    return Path(root) / command


def _load_config(path):
    if path is None:
        return {}
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ValidationError(f"cannot read config {path}: {e}") from e


def _training_config(args):
    """Defaults < config file < explicit flags."""
    payload = _load_config(args.config)
    training_keys = {k for k in vars(TrainingConfig())}
    payload = {k: v for k, v in payload.items() if k in training_keys}
    config = config_from_dict(payload)
    overrides = {}
    if getattr(args, "latent_dim", None) is not None:
        overrides["latent_dim"] = args.latent_dim
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "threshold", None) is not None:
        overrides["stlsq_threshold"] = args.threshold
    return replace(config, **overrides) if overrides else config


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _ManifestWriter:
    def __init__(self, command, args, out_dir):
        self.command = command
        self.out_dir = Path(out_dir)
        self.started = time.time()
        self.record = {
            "command": command,
            "config_file": args.config,
            "inputs": {},
            "outputs": {},
            "seeds": [],
        }

    def add_input(self, name, path):
        self.record["inputs"][name] = str(path)

    def add_output(self, path):
        path = Path(path)
        self.record["outputs"][str(path.relative_to(self.out_dir))] = _sha256(path)

    def finish(self, resolved_config=None, seeds=None):
        if resolved_config is not None:
            self.record["resolved_config"] = resolved_config
        if seeds is not None:
            self.record["seeds"] = list(seeds)
        self.record["wall_clock_s"] = time.time() - self.started
        path = self.out_dir / "run_manifest.json"
        path.write_text(json.dumps(self.record, indent=2, sort_keys=True) + "\n")
        return path


def _load_processed(path, smooth_window=0):
    dataset = load_dataset(path)
    return process_dataset(dataset, smooth_window=smooth_window)


def _rollout_config(args, dataset):
    """Defaults < config file < explicit flags; the step rate is the dataset's."""
    payload = _load_config(args.config)
    kwargs = {"step_rate": 1.0 / dataset.meta.dt}
    for key in ("reset_interval", "integrator"):
        value = getattr(args, key, None)  # baseline has no --reset-interval
        if value is None:
            value = payload.get(key)
        if value is not None:
            kwargs[key] = value
    return rollout.RolloutConfig(**kwargs)


def _write_series(path, timestamps, q_pred, q_true, err):
    with open(path, "w") as fh:
        d = q_pred.shape[1]
        header = ["t"] + [f"q_pred_{i}" for i in range(d)] + [f"q_true_{i}" for i in range(d)] + ["err"]
        fh.write(",".join(header) + "\n")
        for k in range(q_pred.shape[0]):
            row = [timestamps[k], *q_pred[k], *q_true[k], err[k]]
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args):
    out = _resolve_out(args, "gen")
    out.mkdir(parents=True, exist_ok=True)
    manifest = _ManifestWriter("gen", args, out)
    payload = _load_config(args.config)
    preset = args.preset or payload.get("preset") or "two_phase"
    kwargs = {}
    for key in ("n_jumps", "lift_seed", "noise_sigma", "dt"):
        if key in payload:
            kwargs[key] = payload[key]
    if args.seed is not None:
        kwargs["lift_seed"] = args.seed
    if "split_counts" in payload:
        kwargs["split_counts"] = tuple(payload["split_counts"])
    if preset == "two_phase":
        spec = synthetic.two_phase_spec(**kwargs)
    elif preset == "three_phase":
        spec = synthetic.three_phase_spec(**kwargs)
    else:
        raise ValidationError(f"unknown preset {preset!r}")
    dataset, _ = synthetic.generate(spec, out_dir=out)
    for f in sorted(out.iterdir()):
        if f.name != "run_manifest.json":
            manifest.add_output(f)
    manifest.finish(resolved_config={"preset": preset, **kwargs}, seeds=[spec.lift_seed])
    print(f"wrote {dataset.n_jumps} jumps to {out}")
    return 0


def cmd_train(args):
    out = _resolve_out(args, "train")
    out.mkdir(parents=True, exist_ok=True)
    manifest = _ManifestWriter("train", args, out)
    manifest.add_input("dataset", args.dataset)
    config = _training_config(args)
    dataset = _load_processed(args.dataset, config.smooth_window)
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
    out = _resolve_out(args, "scan")
    out.mkdir(parents=True, exist_ok=True)
    manifest = _ManifestWriter("scan", args, out)
    manifest.add_input("dataset", args.dataset)
    config = _training_config(args)
    payload = _load_config(args.config)
    l_values = args.l_values or payload.get("l_values") or [1, 2, 3, 4, 5, 6, 7, 8]
    seeds = args.seeds or payload.get("seeds") or [0, 1, 2, 3, 4]
    dataset = _load_processed(args.dataset, config.smooth_window)

    if args.parallel > 1:
        report = _parallel_scan(dataset, l_values, seeds, config, args.parallel)
    else:
        report = pipeline.model_selection_scan(dataset, l_values, seeds, config)
    report_path = out / "report.csv"
    pipeline.write_selection_report(report, report_path)
    manifest.add_output(report_path)
    manifest.finish(resolved_config=pipeline.config_to_dict(config), seeds=list(seeds))
    for l, mean, std in report.aggregates():
        print(f"l={l}: L_mod = {mean:.6f} +/- {std:.6f}")
    print(f"report written to {report_path}")
    return 0


def _scan_cell(payload):
    dataset, l_values, seed, config = payload
    return pipeline.model_selection_scan(dataset, l_values, [seed], config)


def _parallel_scan(dataset, l_values, seeds, config, workers):
    from concurrent.futures import ProcessPoolExecutor

    cells = [(dataset, l_values, seed, config) for seed in seeds]
    rows = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_scan_cell, cells):
            rows.extend(part.rows)
    rows.sort(key=lambda r: (r.latent_dim, r.seed))
    return pipeline.SelectionReport(rows=tuple(rows), selection_lambda=config.selection_lambda)


def cmd_eval(args):
    out = _resolve_out(args, "eval")
    out.mkdir(parents=True, exist_ok=True)
    manifest = _ManifestWriter("eval", args, out)
    manifest.add_input("dataset", args.dataset)
    manifest.add_input("model", args.model)
    model = pipeline.load_model(args.model)
    dataset = _load_processed(args.dataset)
    config = _rollout_config(args, dataset)
    test_ids = dataset.indices("test")
    if not test_ids:
        raise ValidationError("dataset has no test split")

    # every rollout runs before any file is written, so a failing one leaves no partial table
    results = []
    for idx in test_ids:
        jump = dataset.jumps[idx]
        results.append((idx, "full", rollout.rollout_full(model, jump, config)))
        if config.reset_interval > 0:
            results.append((idx, "reset", rollout.rollout_with_reset(model, jump, config)))

    metrics_path = out / "metrics.csv"
    with open(metrics_path, "w") as fh:
        fh.write("jump,mode,mean_rmse\n")
        for idx, mode, r in results:
            series_path = out / f"rollout_{idx:03d}_{mode}.csv"
            _write_series(series_path, r.timestamps, r.q_pred, r.q_true, r.error_norm)
            manifest.add_output(series_path)
            fh.write(f"{idx},{mode},{float(r.rmse.mean())!r}\n")
            print(f"jump {idx} [{mode}]: mean RMSE {float(r.rmse.mean()):.6g}")
    manifest.add_output(metrics_path)
    manifest.finish(seeds=[])
    return 0


def cmd_baseline(args):
    out = _resolve_out(args, "baseline")
    out.mkdir(parents=True, exist_ok=True)
    manifest = _ManifestWriter("baseline", args, out)
    manifest.add_input("dataset", args.dataset)
    payload = _load_config(args.config)
    params = aslip.AslipParams(
        k_s=float(payload.get("k_s", 2500.0)),
        m=float(payload.get("mass", 12.0)),
        l0=np.asarray(payload.get("l0", [0.0, 0.0, 0.3]), dtype=float),
        g=float(payload.get("g", 9.81)),
    )
    dataset = _load_processed(args.dataset)
    model = pipeline.load_model(args.model) if args.model else None
    config = _rollout_config(args, dataset)
    m = dataset.meta.m
    com_cols = slice(m, m + 3)

    test_ids = dataset.indices("test")
    if not test_ids:
        raise ValidationError("dataset has no test split")
    # every rollout runs before any file is written, so a failing one leaves no partial table
    compared = []
    for idx in test_ids:
        jump = dataset.jumps[idx]
        dt = float(np.median(np.diff(jump.timestamps)))
        schedule, feet, force_sum = aslip.aslip_inputs_from_trajectory(jump)
        com_true = jump.com_positions if jump.com_positions is not None else jump.q[:, com_cols]
        state0 = aslip.AslipState(
            b=com_true[0].copy(),
            db=jump.dq[0, com_cols].copy(),
            foot=feet[0],
            phase=Phase.CONTACT if schedule[0] is not Phase.FLIGHT else Phase.FLIGHT,
        )
        b_pred, _ = aslip.simulate_aslip(
            params, state0, force_sum / params.m, schedule, jump.n_samples, dt,
            integrator=config.integrator, foot_positions=feet,
        )
        named = [("aslip", _com_result(jump.timestamps, b_pred, com_true, schedule))]
        if model is not None:
            res = rollout.rollout_full(model, jump, config)
            named.append(("learned", _com_result(
                jump.timestamps, res.q_pred[:, com_cols], com_true, schedule)))
        compared.append((idx, named, rollout.compare_models(named)))

    table_path = out / "comparison.csv"
    with open(table_path, "w") as fh:
        fh.write("jump,model,rmse_x,rmse_y,rmse_z\n")
        for idx, named, table in compared:
            for name, rmse in table.rows():
                fh.write(f"{idx},{name}," + ",".join(repr(float(x)) for x in rmse) + "\n")
            for i, name in enumerate(table.names):
                series_path = out / f"baseline_{idx:03d}_{name}.csv"
                res = named[i][1]
                _write_series(series_path, res.timestamps, res.q_pred, res.q_true,
                              table.error_series[i])
                manifest.add_output(series_path)
    manifest.add_output(table_path)
    manifest.finish(seeds=[])
    print(f"comparison written to {table_path}")
    return 0


def _com_result(timestamps, pred, true, schedule):
    return rollout.RolloutResult(
        timestamps=timestamps,
        latent_pred=np.zeros((pred.shape[0], 0)),
        q_pred=pred,
        q_true=np.asarray(true),
        phase_schedule=tuple(schedule),
    )


def cmd_finetune(args):
    out = _resolve_out(args, "finetune")
    out.mkdir(parents=True, exist_ok=True)
    manifest = _ManifestWriter("finetune", args, out)
    manifest.add_input("dataset", args.dataset)
    manifest.add_input("model", args.model)
    model = pipeline.load_model(args.model)
    # the latent dimension is the model's; record the config that runs
    config = replace(_training_config(args), latent_dim=model.autoencoder.latent_dim)
    dataset = _load_processed(args.dataset, config.smooth_window)
    tuned = pipeline.fine_tune(model, dataset, config)
    model_path = out / "model.txt"
    pipeline.save_model(tuned, model_path)
    manifest.add_output(model_path)
    manifest.finish(resolved_config=pipeline.config_to_dict(config), seeds=[config.seed])
    print(f"fine-tuned model written to {model_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jumprom",
        description="Learn and evaluate reduced-order symbolic models of robot jumps.",
    )
    parser.add_argument("--version", action="version", version=__about__.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=False, model=False):
        p.add_argument("--config", help="JSON config file; keys mirror the flags")
        p.add_argument("--out", help=f"output directory (default: ${OUT_ROOT_ENV}/<command>)")
        p.add_argument("--seed", type=int, default=None)
        if dataset:
            p.add_argument("--dataset", required=True, help="dataset directory")
        if model:
            p.add_argument("--model", required=True, help="model file")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--preset", default=None, choices=["two_phase", "three_phase"],
                   help="dataset preset (default: two_phase)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="run the three-stage training pipeline")
    common(p, dataset=True)
    p.add_argument("--latent-dim", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("scan", help="model-selection scan over latent dimensions")
    common(p, dataset=True)
    p.add_argument("--l-values", type=_int_list, default=None, help="comma-separated latent dims")
    p.add_argument("--seeds", type=_int_list, default=None, help="comma-separated seeds")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("eval", help="roll out a model against recorded test jumps")
    common(p, dataset=True, model=True)
    p.add_argument("--reset-interval", type=int, default=None)
    p.add_argument("--integrator", choices=_integrators.INTEGRATORS, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="compare against the actuated-SLIP baseline")
    common(p, dataset=True)
    p.add_argument("--model", default=None, help="optional learned model to include")
    p.add_argument("--integrator", choices=_integrators.INTEGRATORS, default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("finetune", help="fine-tune an existing model on a new dataset")
    common(p, dataset=True, model=True)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_finetune)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except JumpromError as e:
        print(f"ERROR {e.code}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"ERROR E_IO: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
