"""Sequential training, model selection, fine-tuning, and the model format."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jumprom import pipeline, synthetic
from jumprom.autoencoder import AutoencoderParams, encode, transform_input
from jumprom.errors import (
    ModelFormatError,
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

        def record(params, library, data, *args, **kwargs):
            seen.append((kwargs["phase"], params, data))
            return fit(params, library, data, *args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_phase_model", record)
        run_pipeline(dataset, TrainingConfig(latent_dim=2, boundary_trim=trim))
        assert [phase for phase, _, _ in seen] == [
            Phase.CONTACT, Phase.PARTIAL_CONTACT, Phase.FLIGHT,
        ]
        for phase, params, data in seen:
            ref = _sliced_phase_data(params, dataset.jumps_in("train"), phase, trim)
            for f in fields(LatentPhaseData):
                assert np.array_equal(getattr(data, f.name), getattr(ref, f.name)), f.name

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
    """Reference stage-3 data: seg.start + trim .. seg.end - trim of each segment of the phase."""
    parts = {name: [] for name in ("q", "dq", "ddq", "u")}
    for jump in jumps:
        for seg in segment_phases(jump.contact)[1]:
            if seg.phase is phase and seg.end - trim >= seg.start + trim:
                for name, part in parts.items():
                    part.append(getattr(jump, name)[seg.start + trim : seg.end - trim + 1])
    q, dq, ddq, u = (np.concatenate(parts[name]) for name in ("q", "dq", "ddq", "u"))
    return LatentPhaseData(xi=encode(params, q, 0), dxi=encode(params, dq, 1),
                           nu=transform_input(params, u), ddxi=encode(params, ddq, 2), ddq=ddq)


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

    def testconfig_to_dict_round_trip(self):
        config = TrainingConfig(latent_dim=3, stlsq_threshold=0.2)
        assert config_from_dict(config_to_dict(config)) == config


class TestFineTune:
    def test_noop_returns_equal_model(self, clean_bundle):
        config = TrainingConfig(latent_dim=2, seed=0, epochs=0)
        tuned = fine_tune(clean_bundle.model, clean_bundle.dataset, config)
        assert models_equal(tuned, clean_bundle.model)

    def test_far_offset_fine_tunes(self, clean_bundle):
        # a base-x shift of 50 m: descent on uncentred data diverged here
        m = clean_bundle.dataset.meta.m
        shift = np.zeros(m + 6)
        shift[m] = 50.0
        shifted = replace(clean_bundle.dataset, jumps=tuple(
            replace(j, q=j.q + shift) for j in clean_bundle.dataset.jumps))
        config = TrainingConfig(latent_dim=2, seed=0)
        tuned = fine_tune(clean_bundle.model, shifted, config)
        before = decoder_test_error(clean_bundle.model, shifted)
        assert decoder_test_error(tuned, shifted) < before

    def test_parent_hash_recorded(self, clean_bundle):
        config = TrainingConfig(latent_dim=2, epochs=0)
        tuned = fine_tune(clean_bundle.model, clean_bundle.dataset, config)
        assert tuned.provenance["parent_hash"] == model_hash(clean_bundle.model)

    def test_domain_shift_improves_reconstruction(self, clean_bundle):
        # same dynamics, different embedding: fine-tuning must adapt
        shifted_spec = synthetic.two_phase_spec(n_jumps=8, lift_seed=12,
                                                split_counts=(5, 1, 2))
        shifted, _ = synthetic.generate(shifted_spec)
        shifted = process_dataset(shifted)
        before = decoder_test_error(clean_bundle.model, shifted)
        config = TrainingConfig(latent_dim=2, epochs=300, learning_rate=2e-3)
        tuned = fine_tune(clean_bundle.model, shifted, config)
        after = decoder_test_error(tuned, shifted)
        assert after < before
