"""Spans and counts around the public functions of each jumprom layer.

The benchmark times the program only from outside.  During a traced pass
every function listed in ``LAYERS`` is replaced, at the place its caller
looks the name up, by a wrapper that records one span: name, tag, start,
end and parent span.  Spans stay in memory until the pass ends; then the
pass is summarised and its spans are appended, with the run and pass id,
to a CSV file.  Untraced passes run the unpatched program.
"""

from __future__ import annotations

import csv
import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

START, END, PARENT = 2, 3, 4   # positions in a span record


def _config_arg(args, kwargs):
    return kwargs["config"] if "config" in kwargs else args[2]


def _integrator_tag(args, kwargs):
    return _config_arg(args, kwargs).integrator


def _latent_tag(args, kwargs):
    config = kwargs["config"] if "config" in kwargs else args[1]
    return f"l{config.latent_dim}"


def _dataset_bytes(root):
    from jumprom.trajectory_data import MANIFEST_NAME

    root = Path(root)
    manifest = root / MANIFEST_NAME
    names = [entry["file"] for entry in json.loads(manifest.read_text())["jumps"]]
    return manifest.stat().st_size + sum((root / name).stat().st_size for name in names)


def _count_generate(counts, args, kwargs, result):
    counts["synthetic.jumps"] += result[0].n_jumps


def _count_saved(counts, args, kwargs, result):
    counts["trajectory_data.save_dataset.bytes"] += _dataset_bytes(result)


def _count_loaded(counts, args, kwargs, result):
    counts["trajectory_data.load_dataset.bytes"] += _dataset_bytes(args[0])


def _count_rollout(counts, args, kwargs, result):
    config = _config_arg(args, kwargs)
    steps = result.q_pred.shape[0] - 1
    counts[f"rollout.steps.{config.integrator}"] += steps
    if config.integrator == "fixed_rk4":
        counts["rollout.expected_row_calls.fixed_rk4"] += 4 * config.rk4_substeps * steps


def _count_nfev(counts, args, kwargs, result):
    counts["_integrators.nfev_total"] += result[1]


def _count_kron(counts, args, kwargs, result):
    coeffs = result.coefficients
    p, l = coeffs.Xi.shape
    counts[f"sindy.kron_dim.counted.l{l}"] = p * l
    counts[f"sindy.kron_dim.computed.l{l}"] = coeffs.library.term_count(l) * l


# (module where the caller looks the name up, attribute, span name, tag, count hook)
LAYERS = (
    ("jumprom.cli", "cmd_gen", "cli.gen", None, None),
    ("jumprom.cli", "cmd_train", "cli.train", None, None),
    ("jumprom.cli", "cmd_eval", "cli.eval", None, None),
    ("jumprom.cli", "cmd_baseline", "cli.baseline", None, None),
    ("jumprom.cli", "cmd_scan", "cli.scan", None, None),
    ("jumprom.cli", "load_dataset", "trajectory_data.load_dataset", None, _count_loaded),
    ("jumprom.cli", "process_dataset", "trajectory_data.process_dataset", None, None),
    ("jumprom.synthetic", "generate", "synthetic.generate", None, _count_generate),
    ("jumprom.synthetic", "save_dataset", "trajectory_data.save_dataset", None, _count_saved),
    ("jumprom.synthetic", "build_library_row", "sindy.build_library_row", None, None),
    ("jumprom.rollout", "build_library_row", "sindy.build_library_row", None, None),
    ("jumprom.pipeline", "model_selection_scan", "pipeline.model_selection_scan", None, None),
    ("jumprom.pipeline", "run_pipeline", "pipeline.run_pipeline", _latent_tag, None),
    ("jumprom.pipeline", "train_autoencoder", "autoencoder.train_autoencoder", None, None),
    ("jumprom.pipeline", "finetune_decoder", "autoencoder.finetune_decoder", None, None),
    ("jumprom.pipeline", "fit_phase_model", "sindy.fit_phase_model", None, _count_kron),
    ("jumprom.pipeline", "save_model", "pipeline.save_model", None, None),
    ("jumprom.pipeline", "load_model", "pipeline.load_model", None, None),
    ("jumprom.rollout", "rollout_full", "rollout.rollout_full", _integrator_tag, _count_rollout),
    ("jumprom.rollout", "rollout_with_reset", "rollout.rollout_with_reset", _integrator_tag,
     _count_rollout),
    ("jumprom._integrators", "rk4_interval", "_integrators.rk4_interval", None, None),
    ("jumprom._integrators", "adaptive_interval", "_integrators.adaptive_interval", None,
     _count_nfev),
    ("jumprom.aslip", "simulate_aslip", "aslip.simulate_aslip", None, None),
)


class Tracer:
    """Collects the spans and counts of the traced passes of one run."""

    def __init__(self, run_id, spans_path):
        self.run_id = run_id
        self.spans_path = Path(spans_path)
        self.spans = []          # [name, tag, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []
        self.spans_path.write_text("run,pass,id,name,tag,start,end,parent\n")

    def _wrap(self, name, fn, tag, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, tag(args, kwargs) if tag else "", 0.0, 0.0,
                      stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span opened by the benchmark itself."""
        return self._wrap(name, fn, None, None)(*args)

    def install(self):
        for module_name, attr, name, tag, hook in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, tag, hook))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def finish_pass(self, pass_id):
        """Summarise the spans and counts of one pass, append them to the
        spans file and clear them."""
        summary = summarise(self.spans, self.counts)
        with open(self.spans_path, "a", newline="") as fh:
            writer = csv.writer(fh)
            for i, (name, tag, start, end, parent) in enumerate(self.spans):
                writer.writerow((self.run_id, pass_id, i, name, tag, repr(start), repr(end), parent))
        self.spans.clear()
        self.counts.clear()
        return summary


def layer_unit(name):
    """Unit of a per-layer metric, read from its name."""
    if name.endswith((".calls", "nfev_total", "kron_dim_max")):
        return "count"
    if name.endswith(("bytes", "bytes_max")):
        return "B"
    if name.endswith("_per_s"):
        return "1/s"
    return "s"


def self_times(spans):
    """Duration of each span minus the time covered by its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _rollout_ancestor(spans, i):
    i = spans[i][PARENT]
    while i >= 0 and not spans[i][0].startswith("rollout."):
        i = spans[i][PARENT]
    return i


def summarise(spans, counts):
    """Per-layer metrics of one traced pass.

    Returns (metrics, detail): metrics maps a metric name to its value;
    detail holds the per-call samples and cross-check inputs the report
    needs.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    cells = defaultdict(list)
    fixed_row_calls = 0
    for i, (name, tag, start, end, parent) in enumerate(spans):
        key = f"{name}.{tag}" if tag else name
        for k in {name, key}:
            calls[k] += 1
            total[k] += end - start
            self_s[k] += own[i]
        if name == "pipeline.run_pipeline":
            cells[tag].append(end - start)
        elif name == "sindy.build_library_row":
            r = _rollout_ancestor(spans, i)
            if r >= 0 and spans[r][1] == "fixed_rk4":
                fixed_row_calls += 1

    m = {}
    m["synthetic.generate.s"] = total["synthetic.generate"]
    m["synthetic.generate.jumps_per_s"] = (
        counts["synthetic.jumps"] / total["synthetic.generate"] if calls["synthetic.generate"] else 0.0)
    for layer in ("sindy.build_library_row", "sindy.fit_phase_model",
                  "autoencoder.train_autoencoder", "autoencoder.finetune_decoder",
                  "_integrators.rk4_interval", "_integrators.adaptive_interval",
                  "pipeline.run_pipeline"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    # computed from term_count(l) * l, not measured; checked against the
    # fitted coefficient count
    dims = [v for k, v in counts.items() if k.startswith("sindy.kron_dim.computed.")]
    m["sindy.kron_dim_max"] = max(dims, default=0)
    m["sindy.kron_bytes_max"] = 8 * m["sindy.kron_dim_max"] ** 2
    samples = [d for per_l in cells.values() for d in per_l]
    m["pipeline.run_pipeline.s"] = statistics.median(samples) if samples else 0.0
    for tag, per_l in cells.items():
        m[f"pipeline.run_pipeline.{tag}.s"] = statistics.median(per_l)
    for layer in ("pipeline.save_model", "pipeline.load_model", "trajectory_data.save_dataset",
                  "trajectory_data.load_dataset", "trajectory_data.process_dataset",
                  "aslip.simulate_aslip", "pipeline.model_selection_scan"):
        m[f"{layer}.s"] = total[layer]
    m["trajectory_data.save_dataset.bytes"] = counts["trajectory_data.save_dataset.bytes"]
    m["trajectory_data.load_dataset.bytes"] = counts["trajectory_data.load_dataset.bytes"]
    rollout_s = 0.0
    steps = 0
    for integrator in ("fixed_rk4", "adaptive"):
        for kind in ("rollout_full", "rollout_with_reset"):
            m[f"rollout.{kind}.{integrator}.s"] = total[f"rollout.{kind}.{integrator}"]
            rollout_s += total[f"rollout.{kind}.{integrator}"]
        steps += counts[f"rollout.steps.{integrator}"]
    m["rollout.steps_per_s"] = steps / rollout_s if rollout_s else 0.0
    m["_integrators.nfev_total"] = counts["_integrators.nfev_total"]
    cli_self = 0.0
    for command in ("gen", "train", "eval", "baseline", "scan"):
        m[f"cli.{command}.self_s"] = self_s[f"cli.{command}"]
        cli_self += self_s[f"cli.{command}"]
    m["cli.self_s"] = cli_self

    detail = {
        "cell_s": samples,
        "self_s_sum": sum(own),
        "fixed_rk4_row_calls": fixed_row_calls,
        "fixed_rk4_row_calls_expected": counts["rollout.expected_row_calls.fixed_rk4"],
        "kron_dims": {
            k.rsplit(".", 1)[1]: (v, counts[k.replace(".counted.", ".computed.")])
            for k, v in counts.items() if k.startswith("sindy.kron_dim.counted.")
        },
    }
    return m, detail
