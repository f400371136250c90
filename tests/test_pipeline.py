"""Sequential training, model selection, fine-tuning, and the model format."""

import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jumprom import pipeline, synthetic
from jumprom.autoencoder import AutoencoderParams, encode, transform_input
from jumprom.errors import (
    JumpromError,
    ModelFormatError,
    PipelineStepError,
    UnsupportedModelVersionError,
    ValidationError,
)
from jumprom.pipeline import (
    MultiPhaseModel,
    TrainingConfig,
    config_from_dict,
    decoder_test_error,
    fine_tune,
    load_model,
    model_hash,
    model_selection_scan,
    parse_model,
    run_pipeline,
    save_model,
    selection_loss,
    serialize_model,
    write_selection_report,
    config_to_dict,
)
from jumprom.sindy import FunctionLibrarySpec, LatentPhaseData, PhaseModel, SparseCoefficients
from jumprom.trajectory_data import Phase, process_dataset, segment_phases

from helpers import models_equal


class TestRunPipeline:
    def test_two_phase_coverage(self, clean_bundle):
        assert clean_bundle.model.phase_labels == (Phase.CONTACT, Phase.FLIGHT)

    def test_three_phase_coverage(self, three_phase_bundle):
        dataset, _ = three_phase_bundle
        model = run_pipeline(dataset, TrainingConfig(latent_dim=2))
        assert model.phase_labels == (
            Phase.CONTACT, Phase.PARTIAL_CONTACT, Phase.FLIGHT,
        )

    def test_frozen_weight_ledger(self, clean_bundle):
        model, snaps = clean_bundle.model, clean_bundle.snapshots
        # encoder unchanged from stage 1 onward
        assert model.autoencoder.W_enc.tobytes() == snaps.after_stage1.W_enc.tobytes()
        assert model.autoencoder.b_enc.tobytes() == snaps.after_stage1.b_enc.tobytes()
        # decoder unchanged from stage 2 onward
        assert model.autoencoder.W_dec.tobytes() == snaps.after_stage2.W_dec.tobytes()
        assert model.autoencoder.b_dec.tobytes() == snaps.after_stage2.b_dec.tobytes()

    def test_missing_seed_phase_errors(self, clean_bundle):
        config = TrainingConfig(latent_dim=2, seed_phase=Phase.PARTIAL_CONTACT)
        with pytest.raises(ValidationError, match="partial_contact"):
            run_pipeline(clean_bundle.dataset, config)

    @pytest.mark.parametrize("shift", [50.0, 1000.0])
    def test_base_x_offset_does_not_change_dynamics(self, clean_bundle, shift):
        # stage 1 centres the data, so a constant base-x offset is absorbed
        # by the encoder bias and the fitted dynamics must not move
        dataset = clean_bundle.dataset
        offset = np.zeros(dataset.meta.m + 6)
        offset[dataset.meta.m] = shift
        shifted = replace(dataset, jumps=tuple(replace(j, q=j.q + offset)
                                               for j in dataset.jumps))
        model = run_pipeline(shifted, TrainingConfig(latent_dim=2))
        assert model.phase_labels == clean_bundle.model.phase_labels
        for pm, ref in zip(model.phases, clean_bundle.model.phases):
            assert np.array_equal(pm.coefficients.active_mask, ref.coefficients.active_mask)
            assert np.max(np.abs(pm.coefficients.Xi - ref.coefficients.Xi)) <= 1e-9

    def test_deterministic_serialization(self, clean_bundle):
        config = TrainingConfig(latent_dim=2, seed=0)
        again = run_pipeline(clean_bundle.dataset, config)
        assert serialize_model(again) == serialize_model(clean_bundle.model)

    @pytest.mark.parametrize("trim", [0, 2, 5])
    def test_stage3_rows_match_segment_slicing(self, three_phase_bundle, monkeypatch, trim):
        dataset, _ = three_phase_bundle
        fit = pipeline.fit_phase_model
        seen = []

        def record(params, library, blocks, *args, **kwargs):
            blocks = list(blocks)
            seen.append((kwargs["phase"], params, blocks))
            return fit(params, library, blocks, *args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_phase_model", record)
        run_pipeline(dataset, TrainingConfig(latent_dim=2, boundary_trim=trim))
        assert [phase for phase, _, _ in seen] == [
            Phase.CONTACT, Phase.PARTIAL_CONTACT, Phase.FLIGHT,
        ]
        for phase, params, blocks in seen:
            assert all(block.n_samples for block in blocks)  # no empty slice is encoded
            ref = _sliced_phase_data(params, dataset.jumps_in("train"), phase, trim)
            for f in fields(LatentPhaseData):
                rows = np.concatenate([getattr(block, f.name) for block in blocks])
                assert np.array_equal(rows, getattr(ref, f.name)), f.name

    def test_trim_that_empties_a_phase_errors(self, three_phase_bundle):
        dataset, _ = three_phase_bundle
        longest = max(len(seg) for jump in dataset.jumps_in("train")
                      for seg in segment_phases(jump.contact)[1]
                      if seg.phase is Phase.PARTIAL_CONTACT)
        # trimming (n + 1) // 2 samples off both ends leaves nothing of an n-sample segment
        config = TrainingConfig(latent_dim=2, boundary_trim=(longest + 1) // 2)
        with pytest.raises(ValidationError, match="no data for phase partial_contact"):
            run_pipeline(dataset, config)


def _sliced_phase_data(params, jumps, phase, trim):
    """Reference stage-3 data: seg.start + trim .. seg.end - trim of each segment of the phase,
    each slice encoded on its own (a product's rows may round differently in a longer batch)."""
    parts = {name: [] for name in ("xi", "dxi", "nu", "ddxi", "ddq")}
    for jump in jumps:
        for seg in segment_phases(jump.contact)[1]:
            if seg.phase is phase and seg.end - trim >= seg.start + trim:
                q, dq, ddq, u = (getattr(jump, name)[seg.start + trim : seg.end - trim + 1]
                                 for name in ("q", "dq", "ddq", "u"))
                for name, part in zip(parts, (encode(params, q, 0), encode(params, dq, 1),
                                              transform_input(params, u),
                                              encode(params, ddq, 2), ddq)):
                    parts[name].append(part)
    return LatentPhaseData(**{name: np.concatenate(part) for name, part in parts.items()})


class TestSelection:
    def test_formula_worked_example(self):
        # 2*0.01 + 2*0.001*ln(10)
        assert selection_loss(0.01, 10, 0.001) == pytest.approx(
            0.02 + 0.002 * math.log(10.0), abs=1e-15
        )

    def test_single_active_term_has_zero_complexity(self):
        assert selection_loss(0.5, 1, 0.001) == 1.0

    def test_monotone_in_both_arguments(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            e, n = rng.uniform(0, 1), rng.integers(1, 200)
            assert selection_loss(e + 0.1, n, 1e-3) > selection_loss(e, n, 1e-3)
            assert selection_loss(e, n + 1, 1e-3) > selection_loss(e, n, 1e-3)

    def test_scan_rows_and_invariant(self, clean_bundle, tmp_path):
        config = TrainingConfig(latent_dim=2)
        report = model_selection_scan(clean_bundle.dataset, [1, 2], [0, 1], config)
        assert len(report.rows) == 4
        assert [r.latent_dim for r in report.rows] == [1, 1, 2, 2]
        for r in report.rows:
            recomputed = selection_loss(r.decoder_error, r.active_count,
                                        report.selection_lambda)
            assert abs(recomputed - r.selection_loss) < 1e-12
        path = tmp_path / "report.csv"
        write_selection_report(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "l,seed,E_dec,active_count,L_mod"
        assert len(lines) == 5

    def test_scan_rejects_oversized_dims(self, clean_bundle):
        with pytest.raises(ValidationError):
            model_selection_scan(clean_bundle.dataset, [99], [0], TrainingConfig())

    @pytest.mark.parametrize("l_values, seeds, message", [
        ([2], [], "no seeds to scan"), ([], [0], "no latent dimensions to scan"),
        ([2], [-1], "seeds must be integers >= 0"), ([2], "0", "must be a list of integers"),
        ([2.0], [0], "latent dimensions must be integers"),
        ([2, 3, 2], [0], "latent dimensions must not repeat, got 2 twice"),
        ([2], [0, 0], "seeds must not repeat, got 0 twice")])
    def test_scan_rejects_bad_grid(self, clean_bundle, l_values, seeds, message):
        with pytest.raises(ValidationError, match=message):
            model_selection_scan(clean_bundle.dataset, l_values, seeds, TrainingConfig())


def _small_model_text():
    """A two-phase model at l = 2, d = 4 with random weights, serialized."""
    rng = np.random.default_rng(0)
    ae = AutoencoderParams(W_enc=rng.normal(size=(2, 4)), b_enc=rng.normal(size=2),
                           W_dec=rng.normal(size=(4, 2)), b_dec=rng.normal(size=4))
    lib = FunctionLibrarySpec()
    phases = tuple(
        PhaseModel(phase, SparseCoefficients(Xi=rng.normal(size=(lib.term_count(2), 2)),
                                             threshold=0.1, library=lib))
        for phase in (Phase.CONTACT, Phase.FLIGHT))
    model = MultiPhaseModel(autoencoder=ae, phases=phases, provenance={"seed": 0, "m": [-2]})
    return serialize_model(model)


_SMALL_MODEL_TEXT = _small_model_text()


class TestModelFormat:
    def test_round_trip_bit_exact(self, clean_bundle, tmp_path):
        path = tmp_path / "model.txt"
        save_model(clean_bundle.model, path)
        loaded = load_model(path)
        assert models_equal(clean_bundle.model, loaded)
        assert loaded.provenance == clean_bundle.model.provenance
        path2 = tmp_path / "model2.txt"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file_reports_offset(self, clean_bundle, tmp_path):
        text = serialize_model(clean_bundle.model)
        with pytest.raises(ModelFormatError) as err:
            parse_model(text[: len(text) // 2])
        assert isinstance(err.value.byte_offset, int)
        assert 0 < err.value.byte_offset <= len(text)

    def test_version_mismatch(self, clean_bundle):
        text = serialize_model(clean_bundle.model)
        bumped = text.replace("jumprom-model 1", "jumprom-model 9", 1)
        with pytest.raises(UnsupportedModelVersionError):
            parse_model(bumped)

    @pytest.mark.parametrize("degree", ['"2"', "-1"])
    def test_bad_library_degree_is_format_error(self, clean_bundle, degree):
        text = serialize_model(clean_bundle.model)
        assert '"poly_degree": 2' in text
        with pytest.raises(ModelFormatError):
            parse_model(text.replace('"poly_degree": 2', f'"poly_degree": {degree}', 1))

    def test_garbage_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_model("definitely not a model\n")

    @given(st.data())
    def test_round_trip_property(self, data):
        # random library flags, l and sparsity; Xi may hold -0.0, kept bit for bit
        draw = data.draw
        l = draw(st.integers(1, 3))
        d = draw(st.integers(l, l + 3))
        weights = lambda shape: draw(arrays(np.float64, shape, elements=st.floats(-10, 10)))
        ae = AutoencoderParams(W_enc=weights((l, d)), b_enc=weights((l,)),
                               W_dec=weights((d, l)), b_dec=weights((d,)))
        phases = []
        for phase in draw(st.lists(st.sampled_from(list(Phase)), min_size=1, max_size=3,
                                   unique=True)):
            flags = draw(st.tuples(*[st.booleans()] * 4))
            degree = draw(st.integers(0, 2))
            assume(degree > 0 or any(flags))
            lib = FunctionLibrarySpec(degree, *flags)
            shape = (lib.term_count(l), l)
            values = draw(arrays(np.float64, shape,
                                 elements=st.floats(allow_nan=False, allow_infinity=False)))
            keep = draw(arrays(np.bool_, shape))
            coeffs = SparseCoefficients(Xi=np.where(keep, values, 0.0),
                                        threshold=draw(st.floats(0.0, 1.0)), library=lib)
            phases.append(PhaseModel(phase, coeffs))
        model = MultiPhaseModel(autoencoder=ae, phases=tuple(phases), provenance={})
        parsed = parse_model(serialize_model(model))
        assert models_equal(model, parsed)
        for name in ("W_enc", "b_enc", "W_dec", "b_dec"):
            assert getattr(parsed.autoencoder, name).tobytes() == getattr(ae, name).tobytes()
        for a, b in zip(model.phases, parsed.phases):
            assert b.coefficients.Xi.tobytes() == a.coefficients.Xi.tobytes()
            assert np.array_equal(b.coefficients.active_mask, a.coefficients.active_mask)
            assert b.coefficients.threshold == a.coefficients.threshold

    @given(st.data())
    def test_bad_text_raises_only_package_errors(self, data):
        # one whitespace-separated token replaced, or the text cut at any byte
        text = _SMALL_MODEL_TEXT
        if data.draw(st.booleans()):
            start, end = data.draw(st.sampled_from(
                [m.span() for m in re.finditer(r"\S+", text)]))
            token = data.draw(st.sampled_from(["", "x", "-1", "nan", "1e999", "[1]"]))
            text = text[:start] + token + text[end:]
        else:
            text = text[:data.draw(st.integers(0, len(text)))]
        try:
            parse_model(text)
        except JumpromError:
            pass

    def testconfig_to_dict_round_trip(self):
        config = TrainingConfig(latent_dim=3, stlsq_threshold=0.2)
        assert config_from_dict(config_to_dict(config)) == config

    def test_config_from_dict_names_unknown_keys(self):
        payload = {**config_to_dict(TrainingConfig()), "encoder_init": "pca", "bogus": 1}
        with pytest.raises(ValidationError, match="bogus, encoder_init"):
            config_from_dict(payload)

    @pytest.mark.parametrize("weights, message", [
        ({"latent_accel_weight": -1.0}, "latent_accel_weight must be >= 0"),
        ({"decoded_accel_weight": -0.5}, "decoded_accel_weight must be >= 0"),
        ({"latent_accel_weight": 0.0, "decoded_accel_weight": 0.0},
         "latent_accel_weight and decoded_accel_weight are both 0")])
    def test_residual_weights_validated(self, weights, message):
        # a negative weight makes stage 3's system indefinite; two zero
        # weights leave it nothing to fit
        with pytest.raises(ValidationError, match=message):
            TrainingConfig(**weights)
        TrainingConfig(latent_accel_weight=0.0)  # either weight alone may be 0
        TrainingConfig(decoded_accel_weight=0.0)

    def test_library_mapping_and_phase_name_converted(self, clean_bundle):
        config = TrainingConfig(latent_dim=2, seed_phase="contact", library={"poly_degree": 1})
        assert config.seed_phase is Phase.CONTACT
        typed = TrainingConfig(latent_dim=2, library=FunctionLibrarySpec(poly_degree=1))
        assert config.library == typed.library and config.hash() == typed.hash()
        assert models_equal(run_pipeline(clean_bundle.dataset, config),
                            run_pipeline(clean_bundle.dataset, typed))

    @pytest.mark.parametrize("settings, key", [
        ({"library": {"degree": 2}}, "library"), ({"library": 3}, "library"),
        ({"library": {"poly_degree": -1}}, "library"), ({"seed_phase": "bogus"}, "seed_phase"),
        ({"seed_phase": None}, "seed_phase")])
    def test_bad_library_or_seed_phase_named(self, settings, key):
        with pytest.raises(ValidationError, match=key):
            TrainingConfig(**settings)


def _generate(**spec):
    dataset, _ = synthetic.generate(synthetic.two_phase_spec(**spec))
    return process_dataset(dataset)


class TestFineTune:
    def test_noop_returns_equal_model(self, clean_bundle):
        # the aligned fit of the parent's own data is the parent's encoder up to rounding
        config = TrainingConfig(latent_dim=2, seed=0)
        tuned = fine_tune(clean_bundle.model, clean_bundle.dataset, config)
        parent = clean_bundle.model
        for name in ("W_enc", "b_enc", "W_dec", "b_dec"):
            diff = getattr(tuned.autoencoder, name) - getattr(parent.autoencoder, name)
            assert np.max(np.abs(diff)) <= 1e-12
        assert tuned.phase_labels == parent.phase_labels
        for a, b in zip(tuned.phases, parent.phases):
            Xi, Xi_parent = a.coefficients.Xi, b.coefficients.Xi
            assert np.max(np.abs(Xi - Xi_parent)) <= 1e-12 * np.max(np.abs(Xi_parent))
            assert np.array_equal(a.coefficients.active_mask, b.coefficients.active_mask)

    def test_far_offset_fine_tunes(self, clean_bundle):
        # a base-x shift of 50 m: the encoder bias is a gauge fixed at the
        # data mean, so the shift moves neither the latent state nor any fitted term.
        m = clean_bundle.dataset.meta.m
        shift = np.zeros(m + 6)
        shift[m] = 50.0
        shifted = replace(clean_bundle.dataset, jumps=tuple(
            replace(j, q=j.q + shift) for j in clean_bundle.dataset.jumps))
        config = TrainingConfig(latent_dim=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no constant-zero dynamics
            tuned = fine_tune(clean_bundle.model, shifted, config)
        before = decoder_test_error(clean_bundle.model, shifted)
        assert decoder_test_error(tuned, shifted) < before

        plain = fine_tune(clean_bundle.model, clean_bundle.dataset, config)
        q0 = clean_bundle.dataset.jumps[0].q[0]
        assert np.allclose(encode(tuned.autoencoder, q0 + shift), encode(plain.autoencoder, q0),
                           rtol=0.0, atol=1e-6)
        for a, b in zip(tuned.phases, plain.phases):
            assert a.phase == b.phase
            assert np.array_equal(a.coefficients.active_mask, b.coefficients.active_mask)

    def test_parent_hash_recorded(self, clean_bundle):
        config = TrainingConfig(latent_dim=2)
        tuned = fine_tune(clean_bundle.model, clean_bundle.dataset, config)
        assert tuned.provenance["parent_hash"] == model_hash(clean_bundle.model)

    def test_domain_shift_improves_reconstruction(self, clean_bundle):
        # same dynamics, different embedding: fine-tuning must adapt
        shifted = _generate(n_jumps=8, lift_seed=12, split_counts=(5, 1, 2))
        before = decoder_test_error(clean_bundle.model, shifted)
        config = TrainingConfig(latent_dim=2)
        tuned = fine_tune(clean_bundle.model, shifted, config)
        after = decoder_test_error(tuned, shifted)
        assert after < before

    @pytest.mark.parametrize("spec", [
        # the lift-seed-12 set above: noise-free, so both errors sit at the
        # rounding floor (about 1e-27), hence the absolute term
        dict(n_jumps=8, lift_seed=12, split_counts=(5, 1, 2)),
        dict(n_jumps=12, lift_seed=4, noise_sigma={"q": 1e-3, "dq": 1e-3},
             split_counts=(8, 1, 3)),
    ], ids=["lift12_clean", "lift4_noisy"])
    def test_matches_fresh_training_and_only_drops_terms(self, clean_bundle, spec):
        # stages 1 and 2 are a fresh run's and the alignment only changes the
        # latent gauge, so the reconstruction is a fresh run's; stage 3
        # starts from the parent's support and STLSQ only ever removes terms
        shifted = _generate(**spec)
        config = TrainingConfig(latent_dim=2)
        tuned = fine_tune(clean_bundle.model, shifted, config)
        fresh = run_pipeline(shifted, config)
        assert decoder_test_error(tuned, shifted) == pytest.approx(
            decoder_test_error(fresh, shifted), rel=1e-9, abs=1e-25)
        for pm in tuned.phases:
            parent_mask = clean_bundle.model.phase_model(pm.phase).coefficients.active_mask
            assert not np.any(pm.coefficients.active_mask & ~parent_mask)

    def test_orthogonal_span_fails_stage_1(self, clean_bundle):
        # the parent's encoder reads columns 0-1; the new data vary in columns 2-3 only
        d = clean_bundle.dataset.meta.m + 6
        W = np.eye(2, d)
        parent = replace(clean_bundle.model, autoencoder=AutoencoderParams(
            W_enc=W, b_enc=np.zeros(2), W_dec=W.T.copy(), b_dec=np.zeros(d)))
        q_mask = np.zeros(d)
        q_mask[2:4] = 1.0
        moved = replace(clean_bundle.dataset, jumps=tuple(
            replace(j, q=j.q * q_mask) for j in clean_bundle.dataset.jumps))
        with pytest.raises(PipelineStepError) as err:
            fine_tune(parent, moved, TrainingConfig(latent_dim=2))
        assert err.value.step == 1
        assert isinstance(err.value.cause, ValidationError)
        assert f"l=2 latent directions in d={d}" in str(err.value)

    def test_missing_seed_phase_errors(self, clean_bundle):
        config = TrainingConfig(latent_dim=2, seed_phase=Phase.PARTIAL_CONTACT)
        with pytest.raises(ValidationError, match="no partial_contact data to align"):
            fine_tune(clean_bundle.model, clean_bundle.dataset, config)
