"""Deterministic simulated-network execution of federated experiments.

A virtual clock (integer nanoseconds, no real sleeping) drives the same
round core as the live server (:class:`fedproto.Federation`): broadcast,
local epoch, delta upload, aggregate, checkpoint. Per-site links model
latency, relative compute speed (local-epoch duration multiplier),
scheduled per-round outages, and permanent crashes. The timing report
accounts for stragglers: a round's wall time is the slowest site's busy
time (train + both message latencies), and every faster site idles for the
difference.

With zero faults the simulated run is bit-identical to the live transports
and to the sequential reference, because every round decision and all
weight arithmetic go through the same core; the simulator only adds time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import SiteDataset
from .fedproto import ExperimentAborted, Federation, ServerParams, load_resume
from .fingerprint import DerivedConfig, compute_fingerprint
from .learner import build_training_matrix, site_train_seed, train_epochs
from .seeding import stamped_csv

logger = logging.getLogger(__name__)

NS_PER_S = 1_000_000_000

DEFAULT_PER_BATCH_SECONDS = 0.02


@dataclass(frozen=True)
class SiteLink:
    """Network/compute characteristics and fault schedule of one site."""

    site_id: str
    latency_ms: float = 0.0
    speed_factor: float = 1.0
    offline_rounds: frozenset[int] = frozenset()
    crash_at_round: int | None = None

    def __post_init__(self):
        if self.speed_factor <= 0:
            raise ValueError(f"{self.site_id}: speed_factor must be positive")
        if self.latency_ms < 0:
            raise ValueError(f"{self.site_id}: latency_ms must be non-negative")
        if any(r < 1 for r in self.offline_rounds):
            raise ValueError(f"{self.site_id}: offline rounds start at 1")
        if self.crash_at_round is not None and self.crash_at_round < 1:
            raise ValueError(f"{self.site_id}: crash_at_round must be >= 1 "
                             "(cannot crash before joining)")
        object.__setattr__(self, "offline_rounds", frozenset(self.offline_rounds))

    def to_dict(self) -> dict:
        return {
            "site_id": self.site_id,
            "latency_ms": self.latency_ms,
            "speed_factor": self.speed_factor,
            "offline_rounds": sorted(self.offline_rounds),
            "crash_at_round": self.crash_at_round,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SiteLink":
        return cls(
            site_id=d["site_id"],
            latency_ms=float(d.get("latency_ms", 0.0)),
            speed_factor=float(d.get("speed_factor", 1.0)),
            offline_rounds=frozenset(int(r) for r in d.get("offline_rounds", [])),
            crash_at_round=(None if d.get("crash_at_round") is None
                            else int(d["crash_at_round"])),
        )


def apply_fault_schedule(links: Sequence[SiteLink], round_index: int) -> set[str]:
    """Sites unavailable in the given round: scheduled outages plus every
    site whose permanent crash round has passed."""
    if round_index < 1:
        raise ValueError("rounds start at 1")
    out = set()
    for link in links:
        if round_index in link.offline_rounds:
            out.add(link.site_id)
        if link.crash_at_round is not None and round_index >= link.crash_at_round:
            out.add(link.site_id)
    return out


@dataclass(frozen=True)
class RoundSiteTiming:
    round_index: int
    site_id: str
    train_ns: int
    latency_ns: int  # both message hops of the round
    idle_ns: int
    wall_ns: int

    @property
    def busy_ns(self) -> int:
        return self.train_ns + self.latency_ns


@dataclass
class TimingReport:
    rows: list[RoundSiteTiming] = field(default_factory=list)

    def to_csv(self, experiment_digest: str) -> str:
        lines = ["round,site,train_s,latency_s,idle_s,wall_s"]
        for row in self.rows:
            lines.append(",".join([
                str(row.round_index), row.site_id,
                repr(row.train_ns / NS_PER_S), repr(row.latency_ns / NS_PER_S),
                repr(row.idle_ns / NS_PER_S), repr(row.wall_ns / NS_PER_S),
            ]))
        return stamped_csv(experiment_digest, lines)


@dataclass
class SimResult:
    final_weights: np.ndarray | None
    timing: TimingReport
    derived: DerivedConfig
    aborted: bool = False
    abort_reason: str | None = None
    abort_round: int | None = None
    checkpoint_file: Path | None = None


def _epoch_ns(link: SiteLink, params: ServerParams, per_batch_seconds: float) -> int:
    base = params.train.batches_per_epoch * round(per_batch_seconds * NS_PER_S)
    return round(link.speed_factor * base)


def run_simulated(params: ServerParams, datasets: Mapping[str, SiteDataset],
                  links: Sequence[SiteLink], *,
                  per_batch_seconds: float = DEFAULT_PER_BATCH_SECONDS,
                  resume: Path | None = None) -> SimResult:
    """Run a whole federated experiment on the virtual clock.

    ``datasets`` maps site id to its loaded dataset; ``links`` must cover
    every expected site. Checkpoints are written to
    ``params.checkpoint_dir`` exactly as the live server does, and
    ``resume`` behaves identically.
    """
    expected = sorted(params.expected_sites)
    link_by_site = {l.site_id: l for l in links}
    missing_links = [s for s in expected if s not in link_by_site]
    if missing_links:
        raise ValueError(f"links missing for sites: {missing_links}")
    missing_data = [s for s in expected if s not in datasets]
    if missing_data:
        raise ValueError(f"datasets missing for sites: {missing_data}")
    for link in links:
        if link.crash_at_round is not None and link.crash_at_round > params.rounds:
            logger.warning("%s crashes at round %d, after the experiment ends",
                           link.site_id, link.crash_at_round)

    resumed = load_resume(resume, params)
    # Configuration-sync phase (instantaneous on the virtual clock).
    fed = Federation(params, {s: compute_fingerprint(datasets[s].train) for s in expected},
                     resumed)
    derived = fed.derived

    matrices = {s: build_training_matrix(datasets[s].train, derived.feature_config)
                for s in expected}
    site_cfg = {s: replace(params.train, epochs=1,
                           seed=site_train_seed(params.train.seed, s))
                for s in expected}
    timing = TimingReport()

    lat_ns = {s: round(link_by_site[s].latency_ms * 1_000_000) for s in expected}
    train_ns = {s: _epoch_ns(link_by_site[s], params, per_batch_seconds) for s in expected}
    # A delta arrives after the RoundStart hop, one local epoch and the upload hop.
    arrive_ns = {s: 2 * lat_ns[s] + train_ns[s] for s in expected}
    timeout_ns = round(params.round_timeout_s * NS_PER_S)

    for t in fed.rounds():
        unavailable = apply_fault_schedule(links, t)
        w = fed.weights
        # The server stops waiting at the deadline; later deltas are missing.
        received = {s: train_epochs(w, *matrices[s], site_cfg[s], start_epoch=t) - w
                    for s in expected
                    if s not in unavailable and arrive_ns[s] <= timeout_ns}

        complete = set(received) == set(expected)
        wall_ns = max(arrive_ns[s] for s in received) if complete else timeout_ns
        for s in expected:
            busy = arrive_ns[s] if s in received else 0
            timing.rows.append(RoundSiteTiming(
                round_index=t, site_id=s,
                train_ns=train_ns[s] if s in received else 0,
                latency_ns=2 * lat_ns[s] if s in received else 0,
                idle_ns=wall_ns - busy, wall_ns=wall_ns))

        try:
            fed.close_round(t, received)
        except ExperimentAborted as abort:
            logger.error("simulated experiment aborted: %s", abort.reason)
            return SimResult(final_weights=None, timing=timing, derived=derived,
                             aborted=True, abort_reason=abort.reason,
                             abort_round=abort.round_index, checkpoint_file=abort.checkpoint_path)

    return SimResult(final_weights=fed.weights, timing=timing, derived=derived,
                     checkpoint_file=fed.last_checkpoint)
