"""Command-line entry point.

    fedrad gen --config exp.json          generate the site datasets
    fedrad validate <site-dir> ...        data-readiness validation
    fedrad characterize --config exp.json descriptive statistics per site
    fedrad train-sim --config exp.json    simulated federated training
    fedrad serve --config exp.json        live federated server (TCP)
    fedrad join --site <dir> --server h:p live federated client
    fedrad evaluate --config exp.json     score scenario variants on test sets
    fedrad rank --in metrics.csv          rank aggregation over the scores
    fedrad report --config exp.json       join all artifacts into one bundle

Exit codes: 0 success, 1 usage or configuration error, 2 validation
failures, 3 experiment aborted (a main run prints the checkpoint log to resume
from; a leave-out run restarts from round 0). Every failure is raised, and
:func:`main` alone reports it and picks the exit code: an abort is a
:class:`fedrad.config.ExperimentAborted`, and a ``ValueError``, ``KeyError``
or ``OSError`` prints ``fedrad <command>: <reason>`` to stderr.
Set FEDRAD_LOG=error|warn|info|debug to control logging.

Each command imports the modules it runs when it runs, so ``--help``,
``rank`` and ``report`` load neither numpy nor scipy, ``evaluate`` alone
loads scipy, and every other command loads numpy. ``perfbench/`` measures
what each command's start-up costs.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .config import (TRANSPORT_SIM, ExperimentAborted, ExperimentConfig, Scenario,
                     checkpoints_dir, eval_dir, load_config, models_dir, site_dir, sites_dir)
from .seeding import check_stamp, read_stamped_json, to_dict, write_json

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ABORTED = 3

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("FEDRAD_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: str) -> ExperimentConfig:
    try:
        return load_config(Path(path))
    except (OSError, ValueError) as err:
        raise ValueError(f"cannot load config {path}: {err}") from err


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    from .experiment import generate_all, save_config

    config = _load_config(args.config)
    out = _out_dir(config)
    generate_all(config, out)
    save_config(config, out / "experiment.json")
    print(f"generated {len(config.sites)} site datasets under {sites_dir(out)}")
    print(f"experiment digest: {config.digest}")
    return EXIT_OK


def cmd_validate(args) -> int:
    from .siteio import read_site_manifest
    from .validation import validate_site_dir

    if args.config:
        config = _load_config(args.config)
        site_dirs = [site_dir(Path(config.output_dir), s) for s in config.site_ids]
        for sid, d in zip(config.site_ids, site_dirs):
            read_site_manifest(d, sid, config.digest)
    else:
        site_dirs = [Path(d) for d in args.site_dirs]
    if not site_dirs:
        raise ValueError("no site directories given")

    reports = []
    any_failed = False
    for d in site_dirs:
        report = validate_site_dir(d)
        reports.append(report.to_dict())
        status = "ok" if report.all_passed else f"{report.n_failed} FAILED"
        print(f"{report.site_id}: {len(report.sample_pass)} samples, {status}")
        for f in report.findings:
            print(f"  {f.sample_id}: {f.code.value}: {f.detail}")
        any_failed = any_failed or not report.all_passed
    if args.json:
        write_json(args.json, reports)
    return EXIT_VALIDATION if any_failed else EXIT_OK


def cmd_characterize(args) -> int:
    from .dataset import site_statistics
    from .experiment import load_all

    config = _load_config(args.config)
    out = _out_dir(config)
    stats = []
    for sid, ds in load_all(config, out).items():
        stats.append(site_statistics(ds))
        cc = stats[-1]["class_cc_counts"]
        means = {c: round(v["mean"], 2) for c, v in cc.items() if v}
        print(f"{sid}: voxel volume {stats[-1]['voxel_volume_mm3']['mean']:.3f} mm3, "
              f"mean CC count per class {means}")
    path = out / "characteristics.json"
    write_json(path, {"experiment": config.digest, "sites": stats})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_train_sim(args) -> int:
    from . import experiment as exp
    from .evalrank import scenario_variants
    from .fingerprint import site_fingerprint

    config = _load_config(args.config)
    if config.transport != TRANSPORT_SIM:
        raise ValueError(f"config transport is {config.transport!r}; "
                         "use 'fedrad serve'/'fedrad join' for tcp")
    roster = config.site_ids
    # the models the configured scenarios compare, in training order: the local
    # models, the federation, then the leave-out federations, each in site order
    needed = {name for scenario in config.scenarios for site in roster
              for _, members in scenario_variants(scenario, roster, site) for name, _ in members}
    plan = sorted(needed, key=lambda n: (("local", "fed", "fed_loo").index(n.partition(":")[0]), n))
    if args.resume and "fed" not in plan:
        raise ValueError("--resume continues the main federated run, and no "
                         "configured scenario has one")
    out = _out_dir(config)
    # training reads only the training grids; the test grids stay on disk
    datasets = exp.load_all(config, out, splits=("train",))
    # every plan entry, local or federated, uses these; each site once
    fingerprints = {s: site_fingerprint(s, datasets[s].train) for s in roster}
    resume = Path(args.resume) if args.resume else None
    registry = {name: exp.train_model(name, config, datasets, fingerprints, out,
                                      resume if name == "fed" else None) for name in plan}

    path = exp.save_registry(registry, out, config.digest)
    local_sites = [s for s in roster if f"local:{s}" in registry]
    n_loo = sum(f"fed_loo:{s}" in registry for s in roster)
    print(f"trained models: {local_sites} local" + (", fed" if "fed" in registry else "")
          + (f", {n_loo} leave-out" if n_loo else "") + f" -> {path}")
    return EXIT_OK


def cmd_serve(args) -> int:
    from . import experiment as exp
    from .evalrank import TrainedModel
    from .fedproto import checkpoint_log, load_checkpoint, run_server
    from .fingerprint import derive_config
    from .transport import TcpServerTransport

    config = _load_config(args.config)
    out = _out_dir(config)
    # read before listening: a registry that exists but fails its checks
    # stops the run, and only a missing one starts empty
    registry = (exp.load_registry(out, config.digest)
                if (models_dir(out) / "models.json").exists() else {})
    host, _, port = args.bind.partition(":")
    listener = TcpServerTransport(host or "127.0.0.1", int(port or 0))
    print(f"listening on {listener.address[0]}:{listener.address[1]}", flush=True)
    ckpt_dir = checkpoints_dir(out, "main")
    params = exp.server_params(config, ckpt_dir)
    try:
        weights = run_server(params, listener,
                             resume=Path(args.resume) if args.resume else None)
    finally:
        listener.close()
    # The final checkpoint holds the averaged fingerprint the sites sent; the
    # fed model's feature config derives from it, so the server needs no site data.
    log = checkpoint_log(ckpt_dir)
    final = load_checkpoint(log, expected_digest=config.digest)
    if final.round_index != config.rounds:
        raise ValueError(f"the last record of {log} is round {final.round_index}, "
                         f"not the final round {config.rounds}")
    derived = derive_config(final.fp_avg, config.seed)
    registry["fed"] = TrainedModel(weights=weights, feature_config=derived.feature_config)
    exp.save_registry(registry, out, config.digest)
    print(f"federated training complete; checkpoint log {log}")
    return EXIT_OK


def cmd_join(args) -> int:
    from .fedproto import run_client
    from .siteio import load_site_dataset
    from .transport import connect_tcp

    site_path = Path(args.site)
    # a site trains on its training grids only; the test grids stay on disk
    dataset = load_site_dataset(site_path, splits=("train",))
    host, _, port = args.server.partition(":")
    expected_digest = None
    if args.config:
        expected_digest = _load_config(args.config).digest
    try:
        conn = connect_tcp(host, int(port))
    except OSError as err:
        raise OSError(f"cannot reach {args.server}: {err}") from err
    try:
        run_client(dataset, conn, expected_digest=expected_digest,
                   model_out=site_path / "final_model.frwt")
    except ExperimentAborted as abort:
        raise ExperimentAborted(f"site {dataset.site_id}: aborted: {abort.reason}") from abort
    print(f"site {dataset.site_id}: final model saved to {site_path / 'final_model.frwt'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from .evalrank import run_scenario
    from .experiment import load_all, load_registry
    from .records import write_metrics_csv

    config = _load_config(args.config)
    out = _out_dir(config)
    # scoring reads only the test grids; the training grids stay on disk
    datasets = load_all(config, out, splits=("test",))
    registry = load_registry(out, config.digest)
    scenario_names = [args.scenario] if args.scenario else list(config.scenarios)
    results = run_scenario([Scenario(name) for name in scenario_names], datasets, registry)
    for name, records in zip(scenario_names, results):
        edir = eval_dir(out, name)
        edir.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(edir / "metrics.csv", records, config.digest)
        print(f"{name}: wrote {edir / 'metrics.csv'} "
              f"({sum(len(r) for r in records.values())} records)")
    return EXIT_OK


def cmd_rank(args) -> int:
    from .evalrank import rank_records, rank_summary_dict, write_ranks_csv
    from .records import read_metrics_csv

    in_path = Path(args.input)
    records, digest = read_metrics_csv(in_path)
    if not records:
        raise ValueError(f"{in_path}: no metric records to rank")
    try:
        table = rank_records(records, Scenario(args.scenario))
    except ValueError as err:  # a grid short of cells: name the file it came from
        raise ValueError(f"{in_path}: {err}") from err
    ranks_path = in_path.parent / "ranks.csv"
    write_ranks_csv(ranks_path, table, digest)
    write_json(in_path.parent / "summary.json", rank_summary_dict(table, digest))
    best = table.ordered_models()[0]
    print(f"{args.scenario}: best model {best} "
          f"(overall rank {table.overall[best]:.2f}); wrote {ranks_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    """Join the artifacts into report.json; a foreign stamp raises ValueError (exit 1)."""
    from .records import check_timing_csv, read_metrics_csv

    config = _load_config(args.config)
    out = _out_dir(config)
    report: dict = {"experiment": config.digest, "name": config.name,
                    "config": to_dict(config), "scenarios": {}}

    for name in config.scenarios:
        edir = eval_dir(out, name)
        summary_path = edir / "summary.json"
        metrics_path = edir / "metrics.csv"
        if not summary_path.exists() or not metrics_path.exists():
            raise FileNotFoundError(f"missing artifacts for scenario {name!r} "
                                    "(run evaluate and rank first)")
        report["scenarios"][name] = read_stamped_json(summary_path, config.digest)
        check_stamp(metrics_path, read_metrics_csv(metrics_path)[1], config.digest)

    timing_path = out / "timing.csv"
    if timing_path.exists():
        check_timing_csv(timing_path, config)
        report["timing_csv"] = timing_path.name

    characteristics = out / "characteristics.json"
    if characteristics.exists():
        report["characteristics"] = read_stamped_json(characteristics, config.digest)["sites"]

    path = out / "report.json"
    write_json(path, report)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedrad",
                                     description="desk-scale federated training and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate site datasets")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="validate persisted site datasets")
    p.add_argument("site_dirs", nargs="*", metavar="site-dir")
    p.add_argument("--config")
    p.add_argument("--json", help="write the full report to this file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("characterize", help="descriptive statistics per site")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("train-sim", help="run federated training on the simulated network")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", metavar="LOG", help="checkpoint log to continue the main "
                                                   "run from, at its last committed round")
    p.set_defaults(func=cmd_train_sim)

    p = sub.add_parser("serve", help="run the federated server over TCP")
    p.add_argument("--config", required=True)
    p.add_argument("--bind", default="127.0.0.1:7713", metavar="HOST:PORT")
    p.add_argument("--resume", metavar="LOG",
                   help="checkpoint log to continue from, at its last committed round")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("join", help="join a federated experiment as one site")
    p.add_argument("--site", required=True, metavar="SITE-DIR")
    p.add_argument("--server", required=True, metavar="HOST:PORT")
    p.add_argument("--config", help="experiment config to verify the server's digest against")
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("evaluate", help="score scenario variants on every site's test set")
    p.add_argument("--config", required=True)
    p.add_argument("--scenario", choices=[s.value for s in Scenario])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="aggregate metric scores into model rankings")
    p.add_argument("--in", dest="input", required=True, metavar="METRICS.CSV")
    p.add_argument("--scenario", required=True, choices=[s.value for s in Scenario])
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("report", help="join metrics, ranks, and timing into one bundle")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExperimentAborted as abort:
        print(abort.reason if abort.round_index is None
              else f"experiment aborted at round {abort.round_index}: {abort.reason}")
        if abort.checkpoint_path:
            print(f"resume from checkpoint log: {abort.checkpoint_path}")
        return EXIT_ABORTED
    except (ValueError, KeyError, OSError) as err:
        print(f"fedrad {args.command}: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
