"""Deterministic simulated-network execution of federated experiments.

A virtual clock (integer nanoseconds, no real sleeping) drives the same
round core as the live server and clients (:class:`fedproto.Federation` and
:class:`fedproto.Site`): broadcast, local epoch, delta upload, aggregate,
checkpoint. Per-site links model latency, relative compute speed
(local-epoch duration multiplier), scheduled per-round outages, and
permanent crashes. The timing report accounts for stragglers: a round's
wall time is the slowest site's busy time (train + both message
latencies), and every faster site idles for the difference.

With zero faults the simulated run is bit-identical to the live transports
and to the sequential reference, because every round decision and all
weight arithmetic go through the same core; the simulator only adds time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_PER_BATCH_SECONDS, ServerParams, SiteLink
from .dataset import SiteDataset
from .fedproto import ExperimentAborted, Federation, Site, load_resume
from .fingerprint import DatasetFingerprint, DerivedConfig, site_fingerprint
from .seeding import stamped_csv

logger = logging.getLogger(__name__)

NS_PER_S = 1_000_000_000


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
                  fingerprints: Mapping[str, DatasetFingerprint] | None = None,
                  per_batch_seconds: float = DEFAULT_PER_BATCH_SECONDS,
                  resume: Path | None = None) -> SimResult:
    """Run a whole federated experiment on the virtual clock.

    ``datasets`` maps site id to its loaded dataset; ``links`` must cover
    every expected site. ``fingerprints`` maps site id to the fingerprint of
    its training data, as the site would submit it; a caller that runs
    several federations over the same sites computes each once and passes
    them all. Without it, every expected site is fingerprinted here.
    The checkpoint log is written to ``params.checkpoint_dir`` exactly as
    the live server writes it, and ``resume`` behaves identically; a resumed
    run's timing report covers every round.
    """
    expected = sorted(params.expected_sites)
    link_by_site = {l.site_id: l for l in links}
    if fingerprints is None:
        fingerprints = {s: site_fingerprint(s, datasets[s].train)
                        for s in expected if s in datasets}
    for what, have in (("links", link_by_site), ("datasets", datasets),
                       ("fingerprints", fingerprints)):
        missing = [s for s in expected if s not in have]
        if missing:
            raise ValueError(f"{what} missing for sites: {missing}")
    for link in links:
        if link.crash_at_round is not None and link.crash_at_round > params.rounds:
            logger.warning("%s crashes at round %d, after the experiment ends",
                           link.site_id, link.crash_at_round)

    resumed = load_resume(resume, params)
    # Configuration-sync phase (instantaneous on the virtual clock).
    fed = Federation(params, fingerprints, resumed)
    sites = {s: Site(s, datasets[s].train, fed.config) for s in expected}
    timing = TimingReport()

    lat_ns = {s: round(link_by_site[s].latency_ms * 1_000_000) for s in expected}
    train_ns = {s: _epoch_ns(link_by_site[s], params, per_batch_seconds) for s in expected}
    # A site's delta, or its abort, arrives after the RoundStart hop, one
    # local epoch and the upload hop.
    arrive_ns = {s: 2 * lat_ns[s] + train_ns[s] for s in expected}
    timeout_ns = round(params.round_timeout_s * NS_PER_S)

    # timing depends only on links and params: rounds before a resume are timed, not rerun
    for t in range(1, params.rounds + 1):
        unavailable = apply_fault_schedule(links, t)
        # The server stops waiting at the deadline; later sites are missing.
        on_time = [s for s in expected if s not in unavailable and arrive_ns[s] <= timeout_ns]
        wall_ns = max(arrive_ns[s] for s in on_time) if on_time == expected else timeout_ns
        for s in expected:
            ran = s in on_time
            timing.rows.append(RoundSiteTiming(
                round_index=t, site_id=s,
                train_ns=train_ns[s] if ran else 0,
                latency_ns=2 * lat_ns[s] if ran else 0,
                idle_ns=wall_ns - (arrive_ns[s] if ran else 0), wall_ns=wall_ns))
        if t not in fed.rounds():
            continue

        received = {}
        try:
            for s in on_time:
                try:
                    received[s] = sites[s].delta(fed.weights, t)
                except ValueError as exc:
                    # what the live server does with this site's Abort
                    fed.exclude(t, [s], f"site aborted: local training failed: {exc}")
            fed.close_round(t, received)
        except ExperimentAborted as abort:
            logger.error("simulated experiment aborted: %s", abort.reason)
            return SimResult(final_weights=None, timing=timing, derived=fed.derived,
                             aborted=True, abort_reason=abort.reason,
                             abort_round=abort.round_index, checkpoint_file=abort.checkpoint_path)

    return SimResult(final_weights=fed.weights, timing=timing, derived=fed.derived,
                     checkpoint_file=fed.checkpoint_log)
