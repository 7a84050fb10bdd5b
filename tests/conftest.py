import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fedrad.config import CcRegime, SiteProfile
from fedrad.dataset import LabelMask, Sample, Volume, generate_site_dataset
from fedrad.fedproto import Federation

_close_round = Federation.close_round


class ServerCrash(Exception):
    """Stands in for a killed server process; carries its last checkpoint."""

    def __init__(self, checkpoint):
        super().__init__(f"server crashed after committing {checkpoint}")
        self.checkpoint = checkpoint


def crash_after_round(monkeypatch, k):
    """Make every federation, simulated or live, raise :class:`ServerCrash`
    right after it commits round ``k``, where a killed server would stop."""

    def close_round(self, t, received):
        _close_round(self, t, received)
        if t == k:
            raise ServerCrash(self.last_checkpoint)

    monkeypatch.setattr(Federation, "close_round", close_round)


def make_profile(site_id="site_t", n_samples=8, seed=7, regime=CcRegime.FEW_LARGE,
                 prevalence=(0.8, 0.6, 0.4), dims=(12, 12, 12)):
    return SiteProfile(
        site_id=site_id, n_samples=n_samples, grid_dims=dims,
        spacing=(2.0, 1.0, 1.0), intensity_mean=-500.0, intensity_std=50.0,
        class_prevalence=prevalence, lesion_volume_scale=1.0,
        cc_count_regime=regime, seed=seed,
    )


def make_sample(sample_id="s0", dims=(10, 10, 10), spacing=(1.0, 1.0, 1.0),
                labels=None, intensities=None, site_id="site_t"):
    if intensities is None:
        intensities = np.zeros(dims, dtype=np.float32)
    if labels is None:
        labels = np.zeros(dims, dtype=np.uint8)
    from fedrad.dataset import Provenance
    return Sample(
        sample_id=sample_id,
        volume=Volume(id=sample_id, intensities=intensities, spacing=spacing),
        mask=LabelMask(id=sample_id, labels=labels),
        site_id=site_id,
        annotation_provenance=Provenance.MANUAL,
    )


@pytest.fixture(scope="session")
def small_dataset():
    return generate_site_dataset(make_profile())


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
