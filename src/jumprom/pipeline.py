"""Three-stage sequential training, latent-dimension selection, fine-tuning.

Stage 1 fits the autoencoder on the configurations of the seed phase (full
contact by default).  Stage 2 freezes the encoder and refits the decoder
on every phase in closed form.  Stage 3 freezes the whole autoencoder and
sparse-regresses the latent dynamics of each phase separately.  Each train
jump is segmented once; stage 3 reads each segment of a phase where it
lies, ``boundary_trim`` samples clear of either end and so of the dynamics
switch, and streams it into the phase's normal equations.  One
driver, ``_fit_stages``, runs the three stages for both ``run_pipeline``
and ``fine_tune``; fine-tuning runs stages 1 and 2 as training does, maps
their autoencoder once into the parent's latent coordinates and
warm-starts stage 3 from the parent's supports.  The
model selection scan repeats the pipeline over latent dimensions and
seeds and scores each cell with an AIC-style combination of test
reconstruction error and symbolic complexity; one loop deals its cells
into stripes, runs the first in process and the others, if any, in
forked children.
``serialize_model`` and ``parse_model`` share one autoencoder layout,
``_autoencoder_layout``, and the reader takes every line through one field
reader, ``_field``, which reports a malformed value with its byte offset.
A model has one candidate library, which every phase carries and every
phase block of its file repeats.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
import os
import pickle
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import __about__
from .autoencoder import (
    AutoencoderParams,
    align,
    encode,
    finetune_decoder,
    input_map,
    recon_loss,
    train_autoencoder,
)
from .errors import (
    JumpromError,
    ModelFormatError,
    PipelineStepError,
    UnsupportedModelVersionError,
    ValidationError,
    check_fields,
    is_integer,
)
from .sindy import (
    FunctionLibrarySpec,
    LatentPhaseData,
    PhaseModel,
    SparseCoefficients,
    count_active,
    fit_phase_model,
)
from .trajectory_data import (Phase, format_row, is_processed, process_dataset, segment_phases,
                              split_dataset)

log = logging.getLogger("jumprom.pipeline")

MODEL_FORMAT_VERSION = 1
_MODEL_MAGIC = "jumprom-model"

PHASE_ORDER = (Phase.CONTACT, Phase.PARTIAL_CONTACT, Phase.FLIGHT)


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one pipeline run.

    Stage 1 is the closed-form PCA fit, for training and fine-tuning
    alike, so ``seed`` is only recorded.  ``library`` may be given as a
    mapping of ``FunctionLibrarySpec`` fields and ``seed_phase`` as a phase
    name; each is converted to its record when the config is built.
    """

    latent_dim: int = 2
    seed: int = 0
    standardize: bool = False
    decoder_ridge: float = 1e-10
    stlsq_threshold: float = 0.1
    stlsq_ridge: float = 1e-9
    stlsq_max_iters: int = 20
    library: FunctionLibrarySpec = field(default_factory=FunctionLibrarySpec)
    latent_accel_weight: float = 1.0
    decoded_accel_weight: float = 1.0
    boundary_trim: int = 2
    seed_phase: Phase = Phase.CONTACT
    selection_lambda: float = 0.001
    # stage 3 solves only ridge-regularized systems, so stlsq_ridge > 0
    BOUNDS = {"latent_dim": ">= 1", "decoder_ridge": ">= 0", "stlsq_threshold": ">= 0",
              "stlsq_ridge": "> 0", "stlsq_max_iters": ">= 0", "latent_accel_weight": ">= 0",
              "decoded_accel_weight": ">= 0", "boundary_trim": ">= 0", "selection_lambda": ">= 0"}

    def __post_init__(self):
        try:
            if isinstance(self.library, Mapping):
                object.__setattr__(self, "library", FunctionLibrarySpec(**self.library))
        except (TypeError, ValidationError) as e:
            raise ValidationError(f"invalid library in config: {e}") from e
        if not isinstance(self.library, FunctionLibrarySpec):
            raise ValidationError(f"library must be a mapping of FunctionLibrarySpec fields, "
                                  f"got {self.library!r}")
        try:
            object.__setattr__(self, "seed_phase", Phase(self.seed_phase))
        except (TypeError, ValueError) as e:
            raise ValidationError(f"invalid seed_phase in config: {e}") from e
        check_fields(self, self.BOUNDS)
        if self.latent_accel_weight == 0 and self.decoded_accel_weight == 0:
            raise ValidationError("latent_accel_weight and decoded_accel_weight are both 0: "
                                  "stage 3 would fit no residual")

    def hash(self):
        payload = json.dumps(config_to_dict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def config_to_dict(config):
    d = {k: v for k, v in vars(config).items()}
    d["library"] = vars(config.library).copy()
    d["seed_phase"] = str(config.seed_phase)
    return d


def config_from_dict(payload):
    unknown = sorted(set(payload) - {f.name for f in fields(TrainingConfig)})
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    return TrainingConfig(**payload)


@dataclass(frozen=True)
class MultiPhaseModel:
    """Shared autoencoder plus one sparse dynamics model per phase, every
    phase over the model's one candidate library."""

    autoencoder: AutoencoderParams
    phases: tuple[PhaseModel, ...]
    provenance: dict

    def __post_init__(self):
        labels = [pm.phase for pm in self.phases]
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate phase models")
        libraries = [pm.coefficients.library for pm in self.phases]
        if len(set(libraries)) != 1 or None in libraries:
            raise ValidationError(f"a model's phases must all carry one library, found {libraries}")

    @property
    def library(self):
        """The candidate library of every phase."""
        return self.phases[0].coefficients.library

    def phase_model(self, phase):
        for pm in self.phases:
            if pm.phase == phase:
                return pm
        raise ValidationError(f"model has no phase {phase}")

    @property
    def phase_labels(self):
        return tuple(pm.phase for pm in self.phases)


@dataclass(frozen=True)
class StepSnapshots:
    """Parameter copies taken after stages 1 and 2, for audit tests."""

    after_stage1: AutoencoderParams
    after_stage2: AutoencoderParams


@dataclass(frozen=True)
class SelectionRow:
    latent_dim: int
    seed: int
    decoder_error: float
    active_count: int
    selection_loss: float


@dataclass(frozen=True)
class SelectionReport:
    """Scan rows (sorted by latent dim, then seed) plus per-dim aggregates,
    and the number of processes that ran them, which no comparison reads."""

    rows: tuple[SelectionRow, ...]
    selection_lambda: float
    workers: int = field(compare=False)

    def aggregates(self):
        """(latent_dim, mean, std) of the selection loss per latent dim."""
        dims = sorted({r.latent_dim for r in self.rows})
        out = []
        for l in dims:
            vals = np.array([r.selection_loss for r in self.rows if r.latent_dim == l])
            out.append((l, float(vals.mean()), float(vals.std())))
        return out

    def best_latent_dim(self, seed=None):
        rows = [r for r in self.rows if seed is None or r.seed == seed]
        best = min(rows, key=lambda r: (r.selection_loss, r.latent_dim))
        return best.latent_dim


def selection_loss(decoder_error, active_count, selection_lambda):
    """AIC-style score: 2 * error + 2 * lambda * ln(active count), for at
    least one active term (ln(0) would rank a model without dynamics best)."""
    if active_count < 1:
        raise ValidationError(f"the selection loss needs an active term, got {active_count!r}")
    return float(2.0 * decoder_error + 2.0 * selection_lambda * np.log(active_count))


# ---------------------------------------------------------------------------
# data assembly


def _ensure_processed(dataset):
    return dataset if is_processed(dataset) else process_dataset(dataset)


# ---------------------------------------------------------------------------
# pipeline


def _fit_stages(dataset, config, parent=None):
    """Run stages 1 -> 2 -> 3 on the train split; shared by training and fine-tuning.

    Stage 1 is the closed-form PCA fit of the seed-phase configurations,
    and stage 2 refits its decoder on all phases, with or without a parent.
    With a parent model the stage-2 autoencoder is then mapped once into the
    parent's latent coordinates (``align``, reported as a step-1 failure),
    and stage 3 warm-starts each phase from the parent's support.  Returns
    the StepSnapshots after stages 1 and 2 (before any alignment), the
    autoencoder that stage 3 fits against, and the tuple of phase models.
    """
    full_dim = dataset.meta.m + 6
    if config.latent_dim > full_dim:
        raise ValidationError(f"latent_dim must be <= m + 6 = {full_dim}, got {config.latent_dim}")
    train_jumps = _ensure_processed(dataset).jumps_in("train")
    if not train_jumps:
        raise ValidationError("dataset has no train split")

    segments = [(jump, seg) for jump in train_jumps for seg in segment_phases(jump.contact)[1]]
    q_all = np.concatenate([j.q for j in train_jumps], axis=0)

    # stage 1: autoencoder on the seed phase configurations
    q_seed = [jump.q[seg.start:seg.end + 1] for jump, seg in segments
              if seg.phase is config.seed_phase]
    if not q_seed:
        verb = "seed" if parent is None else "align"
        raise ValidationError(f"no {config.seed_phase} data to {verb} the autoencoder")
    q_seed = np.concatenate(q_seed, axis=0)
    try:
        ae1 = train_autoencoder(q_seed, config.latent_dim, standardize=config.standardize)
    except JumpromError as e:
        raise PipelineStepError(1, e) from e
    log.info("stage 1: seed-phase reconstruction loss %.3e", recon_loss(ae1, q_seed))

    # stage 2: decoder refit on all phases, encoder frozen
    try:
        ae2 = finetune_decoder(ae1, q_all, ridge=config.decoder_ridge)
    except JumpromError as e:
        raise PipelineStepError(2, e) from e
    log.info("stage 2: all-phase reconstruction loss %.3e", recon_loss(ae2, q_all))

    ae, supports = ae2, {}
    if parent is not None:
        try:
            ae = align(ae2, parent.autoencoder.W_enc)
        except JumpromError as e:
            raise PipelineStepError(1, e) from e
        supports = {pm.phase: pm.coefficients.active_mask for pm in parent.phases}

    # stage 3: sparse dynamics per phase, autoencoder frozen
    trim = config.boundary_trim
    phase_models, nu_map = [], None
    for phase in PHASE_ORDER:
        in_phase = [(jump, seg) for jump, seg in segments if seg.phase is phase]
        if not in_phase:
            continue
        # finite-difference accelerations straddle the switch at segment ends
        slices = [(jump, slice(seg.start + trim, seg.end + 1 - trim)) for jump, seg in in_phase
                  if len(seg) > 2 * trim]
        if not slices:
            longest = max(len(seg) for _, seg in in_phase)
            raise ValidationError(
                f"no data for phase {phase}: its longest train segment has {longest} samples "
                f"and boundary_trim={trim} removes {trim} from each end")
        try:
            if nu_map is None:   # one SVD per fit, where the first segment needed it
                nu_map = input_map(ae)
            pm = fit_phase_model(
                ae,
                config.library,
                (_latent_phase_data(ae, nu_map, jump, rows) for jump, rows in slices),
                config.stlsq_threshold,
                config.stlsq_ridge,
                latent_weight=config.latent_accel_weight,
                decoded_weight=config.decoded_accel_weight,
                max_iters=config.stlsq_max_iters,
                init_support=supports.get(phase),
                phase=phase,
            )
        except JumpromError as e:
            raise PipelineStepError(3, e) from e
        log.info("stage 3 [%s]: %d active terms", phase, count_active(pm.coefficients))
        phase_models.append(pm)
    return StepSnapshots(after_stage1=ae1, after_stage2=ae2), ae, tuple(phase_models)


def run_pipeline(dataset, config, record_steps=False):
    """Run the three sequential training stages on the train split.

    Returns a MultiPhaseModel (and, with ``record_steps``, a
    StepSnapshots capturing the autoencoder after stages 1 and 2, for
    frozen-weight audits).  Deterministic given (dataset, config).
    """
    steps, ae, phase_models = _fit_stages(dataset, config)
    provenance = {
        "dataset": {
            "robot": dataset.meta.robot,
            "m": dataset.meta.m,
            "dt": dataset.meta.dt,
            "noise_sigma": dataset.meta.noise_sigma,
            "n_jumps": dataset.n_jumps,
            "split_counts": list(dataset.split_counts()),
        },
        "seed": config.seed,
        "latent_dim": config.latent_dim,
        "config_hash": config.hash(),
        "package_version": __about__.__version__,
    }
    model = MultiPhaseModel(autoencoder=ae, phases=phase_models, provenance=provenance)
    return (model, steps) if record_steps else model


def _latent_phase_data(params, nu_map, jump, rows):
    """Encoded regression data of the samples ``rows`` (a slice) of one jump;
    nu_map is the autoencoder's ``input_map``."""
    ddq = jump.ddq[rows]
    return LatentPhaseData(
        xi=encode(params, jump.q[rows], 0),
        dxi=encode(params, jump.dq[rows], 1),
        nu=jump.u[rows] @ nu_map,
        ddxi=encode(params, ddq, 2),
        ddq=ddq,
    )


def decoder_test_error(model, dataset):
    """Mean squared reconstruction error over the test-split configurations."""
    test_jumps = dataset.jumps_in("test")
    if not test_jumps:
        raise ValidationError("dataset has no test split")
    q = np.concatenate([j.q for j in test_jumps], axis=0)
    return recon_loss(model.autoencoder, q)


def total_active(model):
    return sum(count_active(pm.coefficients) for pm in model.phases)


def _scan_axis(values, what, low, high=None):
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ValidationError(f"scan {what} must be a list of integers, got {values!r}")
    values = list(values)
    if not values:
        raise ValidationError(f"no {what} to scan")
    for i, v in enumerate(values):
        if not is_integer(v) or v < low or (high is not None and v > high):
            bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise ValidationError(f"scan {what} must be integers {bounds}, got {v!r}")
        if v in values[:i]:
            raise ValidationError(f"scan {what} must not repeat, got {v!r} twice")
    return values


def _scan_cell(dataset, config, cell):
    """The row of one scan cell (l, seed): the split reshuffled with the
    seed, then the pipeline at latent dim l."""
    l, seed = cell
    cell_dataset = split_dataset(dataset, dataset.split_counts(), seed=seed)
    model = run_pipeline(cell_dataset, replace(config, latent_dim=l, seed=seed))
    e_dec = decoder_test_error(model, cell_dataset)
    active = total_active(model)
    if active == 0:   # selection_loss rejects it too; this names the cell and threshold
        raise ValidationError(
            f"scan cell l={l} seed={seed} has no active term, so its selection loss "
            f"is undefined; lower stlsq_threshold ({config.stlsq_threshold:g})")
    row = SelectionRow(
        latent_dim=l,
        seed=seed,
        decoder_error=e_dec,
        active_count=active,
        selection_loss=selection_loss(e_dec, active, config.selection_lambda),
    )
    log.info("scan l=%d seed=%d: E_dec=%.3e |Xi|=%d L_mod=%.6f",
             l, seed, e_dec, active, row.selection_loss)
    return row


def _scan_stripe(cells, scan_cell):
    """Rows of ``cells``, run in order up to the first that fails:
    (rows, None), or (rows, (cell, error))."""
    rows = []
    for cell in cells:
        try:
            rows.append(scan_cell(cell))
        except JumpromError as e:
            return rows, (cell, e)
    return rows, None


def _fork_stripe(cells, scan_cell):
    """Run ``_scan_stripe`` in a forked child, which pickles its result, or
    the exception it raised, into a pipe and exits; returns the child's pid
    and the pipe's read end."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    try:
        try:
            result = _scan_stripe(cells, scan_cell)
        except BaseException as e:
            result = e
        try:
            payload = pickle.dumps(result)
        except Exception as e:
            payload = pickle.dumps(RuntimeError(f"a scan worker raised {result!r}, which "
                                                f"cannot be pickled: {e}"))
        with open(write, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)


def model_selection_scan(dataset, l_values, seeds, config, workers=1):
    """Run the pipeline over every (latent dim, seed) cell and score it.

    Latent dims are integers in [1, m+6] and seeds integers >= 0; neither
    list may be empty.  Each seed reruns the whole pipeline on a
    train/val/test assignment reshuffled with that seed (same counts), so
    seeds perturb an otherwise deterministic procedure.  The cells are
    sorted by latent dim, largest (costliest) first, and dealt round-robin
    into ``workers`` stripes (at most one per cell, one without os.fork).
    This process runs the first stripe and ``workers`` - 1 forked children,
    which inherit the dataset, the others; each child pipes back its rows
    and failure, or any other exception, raised here once all have ended.
    A stripe runs its cells in the serial order, seeds in order and then
    latent dims ascending, up to its first failure, and the failure first
    in that order is raised, so the rows, and the error of a failing scan,
    are the same for any worker count.  Returns the rows, sorted by latent
    dim then seed, and the number of processes that ran them.
    """
    l_values = _scan_axis(l_values, "latent dimensions", 1, dataset.meta.m + 6)
    seeds = _scan_axis(seeds, "seeds", 0)
    scan_cell = partial(_scan_cell, _ensure_processed(dataset), config)
    cells = [(l, seed) for seed in seeds for l in sorted(l_values)]   # the serial order
    order = {cell: i for i, cell in enumerate(cells)}
    costliest_first = sorted(cells, key=lambda cell: -cell[0])
    workers = min(workers, len(cells)) if hasattr(os, "fork") else 1
    stripes = [sorted(costliest_first[k::workers], key=order.get) for k in range(workers)]
    sys.stdout.flush()   # else each child would write out this process's buffered text again
    sys.stderr.flush()
    children, ended = [], []
    try:
        for stripe in stripes[1:]:
            children.append(_fork_stripe(stripe, scan_cell))
        results = [_scan_stripe(stripes[0], scan_cell)]
    finally:
        for pid, read in children:
            with open(read, "rb") as fh:
                ended.append((pid, fh.read(), os.waitpid(pid, 0)[1]))
    for pid, payload, status in ended:
        if not payload:
            raise RuntimeError(f"scan worker {pid} exited with status "
                               f"{os.waitstatus_to_exitcode(status)} without a result")
        results.append(pickle.loads(payload))
        if isinstance(results[-1], BaseException):
            raise results[-1]
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: order[failure[0]])[1]
    rows = sorted((row for part, _ in results for row in part), key=lambda r: (r.latent_dim, r.seed))
    return SelectionReport(rows=tuple(rows), selection_lambda=config.selection_lambda,
                           workers=workers)


def write_selection_report(report, path):
    with open(path, "w") as fh:
        fh.write("l,seed,E_dec,active_count,L_mod\n")
        for r in report.rows:
            fh.write(f"{r.latent_dim},{r.seed},{r.decoder_error!r},"
                     f"{r.active_count},{r.selection_loss!r}\n")


def fine_tune_config(model, config):
    """The config that fine-tuning ``model`` runs: ``config`` with the
    model's latent dimension and library, whatever ``config`` says of them."""
    return replace(config, latent_dim=model.autoencoder.latent_dim, library=model.library)


def fine_tune(model, dataset, config):
    """Refit all three stages of an existing model on a new dataset.

    Stages 1 and 2 run as in ``run_pipeline``: the closed-form PCA fit of
    the new seed-phase data, then the decoder refit.  Their autoencoder is
    then mapped once into the existing encoder's latent coordinates
    (``align``); stage 3 warm-starts the sparse regression from
    the existing support of each phase (new phases start cold), so it can
    keep or drop the existing terms but adds none.  The latent dimension
    and the library are the model's (``fine_tune_config``), and the
    recorded config hash is of the config that ran.  Provenance records the
    hash of the parent model.
    """
    full_dim = dataset.meta.m + 6
    if model.autoencoder.full_dim != full_dim:
        raise ValidationError(
            f"model dimension {model.autoencoder.full_dim} does not match dataset ({full_dim})"
        )
    config = fine_tune_config(model, config)
    _, ae, phase_models = _fit_stages(dataset, config, parent=model)
    provenance = dict(model.provenance)
    provenance.update({
        "parent_hash": model_hash(model),
        "fine_tuned_on": dataset.meta.robot,
        "seed": config.seed,
        "config_hash": config.hash(),
    })
    return MultiPhaseModel(autoencoder=ae, phases=phase_models, provenance=provenance)


# ---------------------------------------------------------------------------
# model file format


def _autoencoder_layout(l, d):
    """(field, rows, cols) of each autoencoder matrix, in file order; a bias is one row."""
    return (("W_enc", l, d), ("b_enc", 1, l), ("W_dec", d, l), ("b_dec", 1, d))


def _write_matrix(out, name, arr):
    out.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n")
    for row in arr:
        out.write(format_row(row, " ") + "\n")


def serialize_model(model):
    """Render a model as versioned structured text with full float precision."""
    out = io.StringIO()
    out.write(f"{_MODEL_MAGIC} {MODEL_FORMAT_VERSION}\n")
    out.write("provenance " + json.dumps(model.provenance, sort_keys=True) + "\n")
    ae = model.autoencoder
    out.write(f"autoencoder {ae.latent_dim} {ae.full_dim}\n")
    for name, rows, cols in _autoencoder_layout(ae.latent_dim, ae.full_dim):
        _write_matrix(out, name, getattr(ae, name).reshape(rows, cols))
    for pm in model.phases:
        coeffs = pm.coefficients
        lib = coeffs.library
        out.write(f"phase {pm.phase}\n")
        out.write("library " + json.dumps(vars(lib), sort_keys=True) + "\n")
        out.write(f"threshold {coeffs.threshold!r}\n")
        out.write("terms " + " ".join(lib.term_names(ae.latent_dim)) + "\n")
        _write_matrix(out, "coefficients", coeffs.Xi)
    out.write("end\n")
    return out.getvalue()


def model_hash(model):
    return hashlib.sha256(serialize_model(model).encode()).hexdigest()[:16]


def save_model(model, path):
    with open(path, "w") as fh:
        fh.write(serialize_model(model))


def _lines(text):
    """Each non-blank line of ``text``, without its ending (LF or CRLF),
    with its byte offset; asked for one more, raise ModelFormatError at the
    end of the text."""
    offset = 0
    for raw in text.split("\n"):
        line = raw.removesuffix("\r")
        if line.strip():
            yield line, offset
        offset += len(raw.encode()) + 1
    raise ModelFormatError("unexpected end of file", offset - 1)


def _field(lines, key, parse, *args):
    """``parse(rest, *args)`` of the next line, whose first word must be ``key``
    (the rest is the whole line when ``key`` is None).

    A value that ``parse`` rejects with ValueError, TypeError or
    ValidationError raises ModelFormatError at the line's byte offset.
    """
    line, offset = next(lines)
    if key is not None:
        head, _, line = line.partition(" ")
        if head != key:
            raise ModelFormatError(f"expected {key!r}, found {head!r}", offset)
    try:
        return parse(line, *args)
    except (ValueError, TypeError, ValidationError) as e:
        raise ModelFormatError(f"malformed {key or 'line'}: {e}", offset) from e


def _json_object(text):
    value = json.loads(text)
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, found {text.strip()!r}")
    return value


def _dims(text):
    l, d = (int(v) for v in text.split())
    if not 1 <= l <= d:
        raise ValueError(f"latent dim {l} and full dim {d} need 1 <= l <= d")
    return l, d


def _threshold(text):
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {value!r}")
    return value


def _words(text, want):
    if text.split() != want:
        raise ValueError(f"found {text.strip()!r}, expected {' '.join(want)!r}")


def _row(text, count):
    values = [float(v) for v in text.split()]
    if len(values) != count or not all(map(math.isfinite, values)):
        raise ValueError(f"expected {count} finite numbers, found {text.strip()!r}")
    return values


def _read_matrix(lines, name, rows, cols):
    _field(lines, name, _words, [str(rows), str(cols)])
    return np.array([_field(lines, None, _row, cols) for _ in range(rows)]).reshape(rows, cols)


def _library(text, first):
    """The library of a phase, which must equal ``first``, the first phase's
    (None for the first phase itself)."""
    lib = FunctionLibrarySpec(**_json_object(text))
    if first is not None and lib != first:
        raise ValueError(f"differs from the first phase's library, {first}")
    return lib


def _phase_or_end(line, seen):
    """The phase of a ``phase <name>`` line, which must not be in ``seen``;
    None for the closing ``end``."""
    head, _, name = line.partition(" ")
    if head == "end":
        if not seen:
            raise ValueError("a model needs at least one phase")
        return None
    if head != "phase":
        raise ValueError(f"expected 'phase' or 'end', found {head!r}")
    phase = Phase(name.strip())
    if phase in seen:
        raise ValueError(f"repeated phase {phase}")
    return phase


def parse_model(text):
    """Read the text ``serialize_model`` writes.

    Every line goes through ``_field``, so a malformed one raises
    ModelFormatError at its byte offset, as do a file without a phase and a
    ``library`` line that differs from the first phase's; a format version
    other than MODEL_FORMAT_VERSION raises UnsupportedModelVersionError.
    """
    lines = _lines(text)
    version = _field(lines, _MODEL_MAGIC, str.strip)
    if version != str(MODEL_FORMAT_VERSION):
        raise UnsupportedModelVersionError(version, MODEL_FORMAT_VERSION)
    provenance = _field(lines, "provenance", _json_object)
    l, d = _field(lines, "autoencoder", _dims)
    m = {name: _read_matrix(lines, name, rows, cols)
         for name, rows, cols in _autoencoder_layout(l, d)}
    ae = AutoencoderParams(W_enc=m["W_enc"], b_enc=m["b_enc"][0], W_dec=m["W_dec"],
                           b_dec=m["b_dec"][0])
    phase_models, seen, first = [], set(), None
    while (phase := _field(lines, None, _phase_or_end, seen)) is not None:
        seen.add(phase)
        lib = first = _field(lines, "library", _library, first)
        threshold = _field(lines, "threshold", _threshold)
        terms = lib.term_names(l)
        _field(lines, "terms", _words, terms)
        Xi = _read_matrix(lines, "coefficients", len(terms), l)
        coeffs = SparseCoefficients(Xi=Xi, threshold=threshold, library=lib)
        phase_models.append(PhaseModel(phase=phase, coefficients=coeffs))
    return MultiPhaseModel(autoencoder=ae, phases=tuple(phase_models), provenance=provenance)


def load_model(path):
    """Read a model file; bytes that are not UTF-8 raise ModelFormatError
    at the offset of the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ModelFormatError(f"not UTF-8 text ({e.reason})", e.start) from e
    return parse_model(text)

