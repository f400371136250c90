"""Shared fixtures: synthetic datasets and trained models, built once."""

import time
from dataclasses import dataclass

import pytest
from hypothesis import settings

from jumprom import pipeline, synthetic
from jumprom.trajectory_data import process_dataset

NOISE = {"q": 1e-3, "dq": 1e-3}

# every run draws the same examples, and no example is failed for its speed
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


@dataclass
class Bundle:
    dataset: object
    truth: object
    model: object
    snapshots: object
    gen_seconds: float
    train_seconds: float


def _build(noise_sigma=0.0):
    t0 = time.time()
    spec = synthetic.two_phase_spec(noise_sigma=noise_sigma)
    dataset, truth = synthetic.generate(spec)
    dataset = process_dataset(dataset)
    gen_s = time.time() - t0
    t0 = time.time()
    config = pipeline.TrainingConfig(latent_dim=2, seed=0)
    model, snaps = pipeline.run_pipeline(dataset, config, record_steps=True)
    return Bundle(dataset, truth, model, snaps, gen_s, time.time() - t0)


@pytest.fixture(scope="session")
def clean_bundle():
    return _build()


@pytest.fixture(scope="session")
def noisy_bundle():
    return _build(noise_sigma=NOISE)


@pytest.fixture(scope="session")
def three_phase_bundle():
    spec = synthetic.three_phase_spec(n_jumps=6, split_counts=(4, 1, 1))
    dataset, truth = synthetic.generate(spec)
    return process_dataset(dataset), truth
