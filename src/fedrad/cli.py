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
failures, 3 experiment aborted (resumable; the checkpoint path is printed).
Set FEDRAD_LOG=error|warn|info|debug to control logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import experiment as exp
from . import siteio
from .dataset import site_statistics
from .evalrank import (ModelRegistry, Scenario, rank_records, rank_summary_dict,
                       run_scenario, write_ranks_csv)
from .fedproto import ExperimentAborted, checkpoint_path, load_checkpoint, run_client, run_server
from .fingerprint import derive_config
from .records import read_metrics_csv, write_metrics_csv
from .seeding import check_stamp, read_stamped_csv, read_stamped_json, write_json
from .simnet import run_simulated
from .transport import TcpServerTransport, connect_tcp
from .validation import validate_site_dir

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


def _load_config(path: str) -> exp.ExperimentConfig:
    try:
        return exp.load_config(Path(path))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
        raise SystemExit(f"fedrad: cannot load config {path}: {err}")


def _out_dir(config: exp.ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(config)
    exp.generate_all(config, out)
    exp.save_config(config, out / "experiment.json")
    print(f"generated {len(config.sites)} site datasets under {exp.sites_dir(out)}")
    print(f"experiment digest: {config.digest}")
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.config:
        config = _load_config(args.config)
        site_dirs = [exp.site_dir(Path(config.output_dir), s) for s in config.site_ids]
    else:
        site_dirs = [Path(d) for d in args.site_dirs]
    if not site_dirs:
        print("fedrad validate: no site directories given", file=sys.stderr)
        return EXIT_USAGE

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
    config = _load_config(args.config)
    out = _out_dir(config)
    stats = []
    for sid, ds in exp.load_all(config, out).items():
        stats.append(site_statistics(ds).to_dict())
        cc = stats[-1]["class_cc_counts"]
        means = {c: round(v["mean"], 2) for c, v in cc.items() if v}
        print(f"{sid}: voxel volume {stats[-1]['voxel_volume_mm3']['mean']:.3f} mm3, "
              f"mean CC count per class {means}")
    path = out / "characteristics.json"
    write_json(path, {"experiment": config.digest, "sites": stats})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_train_sim(args) -> int:
    config = _load_config(args.config)
    if config.transport != exp.TRANSPORT_SIM:
        print(f"fedrad train-sim: config transport is {config.transport!r}; "
              "use 'fedrad serve'/'fedrad join' for tcp", file=sys.stderr)
        return EXIT_USAGE
    out = _out_dir(config)
    datasets = exp.load_all(config, out)
    needed = exp.needed_model_kinds(config)

    registry = ModelRegistry()
    registry.locals = exp.train_local_models(config, datasets)

    links = exp.zero_fault_links(config)
    if "fed" in needed:
        params = exp.server_params(config, exp.checkpoints_dir(out, "main"))
        result = run_simulated(params, datasets, links,
                               per_batch_seconds=config.per_batch_seconds,
                               resume=Path(args.resume) if args.resume else None)
        (out / "timing.csv").write_text(result.timing.to_csv(config.digest))
        if result.aborted:
            print(f"experiment aborted at round {result.abort_round}: "
                  f"{result.abort_reason}")
            print(f"resume from checkpoint: {result.checkpoint_file}")
            return EXIT_ABORTED
        registry.fed = exp.TrainedModel(weights=result.final_weights,
                                        feature_config=result.derived.feature_config)

    if "fed_leave_out" in needed:
        for held_out in config.site_ids:
            sub = exp.leave_out_config(config, held_out)
            sub_data = {s: datasets[s] for s in sub.site_ids}
            sub_links = exp.zero_fault_links(sub)
            sub_params = exp.server_params(sub, exp.checkpoints_dir(out, f"loo-{held_out}"))
            result = run_simulated(sub_params, sub_data, sub_links,
                                   per_batch_seconds=sub.per_batch_seconds)
            if result.aborted:
                print(f"leave-out run ({held_out}) aborted: {result.abort_reason}")
                print(f"resume from checkpoint: {result.checkpoint_file}")
                return EXIT_ABORTED
            registry.fed_leave_out[held_out] = exp.TrainedModel(
                weights=result.final_weights,
                feature_config=result.derived.feature_config)

    path = exp.save_registry(registry, out, config.digest)
    print(f"trained models: {sorted(registry.locals)} local"
          + (", fed" if registry.fed else "")
          + (f", {len(registry.fed_leave_out)} leave-out" if registry.fed_leave_out else "")
          + f" -> {path}")
    return EXIT_OK


def cmd_serve(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(config)
    host, _, port = args.bind.partition(":")
    listener = TcpServerTransport(host or "127.0.0.1", int(port or 0))
    print(f"listening on {listener.address[0]}:{listener.address[1]}", flush=True)
    ckpt_dir = exp.checkpoints_dir(out, "main")
    params = exp.server_params(config, ckpt_dir)
    try:
        weights = run_server(params, listener,
                             resume=Path(args.resume) if args.resume else None)
    except ExperimentAborted as abort:
        print(f"experiment aborted at round {abort.round_index}: {abort.reason}")
        if abort.checkpoint_path:
            print(f"resume from checkpoint: {abort.checkpoint_path}")
        return EXIT_ABORTED
    finally:
        listener.close()
    try:
        registry = exp.load_registry(out, config.digest)
    except (FileNotFoundError, ValueError):
        registry = ModelRegistry()
    # The final checkpoint holds the averaged fingerprint the sites sent; the
    # fed model's feature config derives from it, so the server needs no site data.
    final = load_checkpoint(checkpoint_path(ckpt_dir, config.rounds),
                            expected_digest=config.digest)
    derived = derive_config(final.fp_avg, config.seed, config.train)
    registry.fed = exp.TrainedModel(weights=weights,
                                    feature_config=derived.feature_config)
    exp.save_registry(registry, out, config.digest)
    print(f"federated training complete; checkpoints in {ckpt_dir}")
    return EXIT_OK


def cmd_join(args) -> int:
    site_path = Path(args.site)
    dataset = siteio.load_site_dataset(site_path)
    host, _, port = args.server.partition(":")
    expected_digest = None
    if args.config:
        expected_digest = _load_config(args.config).digest
    try:
        conn = connect_tcp(host, int(port))
    except OSError as err:
        print(f"fedrad join: cannot reach {args.server}: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        run_client(dataset, conn, expected_digest=expected_digest,
                   model_out=site_path / "final_model.frwt")
    except ExperimentAborted as abort:
        print(f"site {dataset.site_id}: aborted: {abort.reason}")
        return EXIT_ABORTED
    print(f"site {dataset.site_id}: final model saved to {site_path / 'final_model.frwt'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(config)
    datasets = exp.load_all(config, out)
    try:
        registry = exp.load_registry(out, config.digest)
    except (FileNotFoundError, ValueError) as err:
        print(f"fedrad evaluate: {err}", file=sys.stderr)
        return EXIT_USAGE
    scenario_names = [args.scenario] if args.scenario else list(config.scenarios)
    try:
        results = run_scenario([Scenario(name) for name in scenario_names], datasets, registry)
    except KeyError as err:
        print(f"fedrad evaluate: {err}", file=sys.stderr)
        return EXIT_USAGE
    for name, result in zip(scenario_names, results):
        edir = exp.eval_dir(out, name)
        edir.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(edir / "metrics.csv", result.records, config.digest)
        print(f"{name}: wrote {edir / 'metrics.csv'} "
              f"({sum(len(r) for r in result.records.values())} records)")
    return EXIT_OK


def cmd_rank(args) -> int:
    in_path = Path(args.input)
    records, digest = read_metrics_csv(in_path)
    table = rank_records(records, Scenario(args.scenario))
    ranks_path = in_path.parent / "ranks.csv"
    write_ranks_csv(ranks_path, table, digest)
    write_json(in_path.parent / "summary.json", rank_summary_dict(table, digest))
    best = table.ordered_models()[0]
    print(f"{args.scenario}: best model {best} "
          f"(overall rank {table.overall[best]:.2f}); wrote {ranks_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    """Join the artifacts into report.json; a foreign stamp raises ValueError (exit 1)."""
    config = _load_config(args.config)
    out = _out_dir(config)
    report: dict = {"experiment": config.digest, "name": config.name,
                    "config": config.to_dict(), "scenarios": {}}

    for name in config.scenarios:
        edir = exp.eval_dir(out, name)
        summary_path = edir / "summary.json"
        metrics_path = edir / "metrics.csv"
        if not summary_path.exists() or not metrics_path.exists():
            print(f"fedrad report: missing artifacts for scenario {name!r} "
                  f"(run evaluate and rank first)", file=sys.stderr)
            return EXIT_USAGE
        report["scenarios"][name] = read_stamped_json(summary_path, config.digest)
        check_stamp(metrics_path, read_stamped_csv(metrics_path)[0], config.digest)

    timing_path = out / "timing.csv"
    if timing_path.exists():
        check_stamp(timing_path, read_stamped_csv(timing_path)[0], config.digest)
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
    p.add_argument("--resume", help="checkpoint file to resume the main run from")
    p.set_defaults(func=cmd_train_sim)

    p = sub.add_parser("serve", help="run the federated server over TCP")
    p.add_argument("--config", required=True)
    p.add_argument("--bind", default="127.0.0.1:7713", metavar="HOST:PORT")
    p.add_argument("--resume", help="checkpoint file to resume from")
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
    except SystemExit as err:
        if isinstance(err.code, str):
            print(err.code, file=sys.stderr)
            return EXIT_USAGE
        raise
    except (ValueError, KeyError, FileNotFoundError) as err:
        print(f"fedrad: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
