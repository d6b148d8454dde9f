"""Command-line entry point: validate, run, sweep and plot.

Exit codes: 0 success, 1 domain error (validation or run failure),
2 usage/IO error.  ``DTNSIM_THREADS`` caps sweep parallelism (unset or 0:
number of processors); runs are independent, so parallel execution cannot
change results, and outputs are written in sorted order regardless.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import engine, reports, scenario

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _load_config(path: str) -> scenario.ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario.parse_scenario(fh.read())


def _write_events(events, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for time, kind, msg_id, a, b, hops, reason in events:
            fh.write(f"{time:g}\t{kind}\t{msg_id}\t{a}\t{b}\t{hops}\t{reason}\n")


def _print_summary(s: reports.MetricsSummary) -> None:
    print(f"delivery_probability = {s.delivery_probability:.6g}")
    print(f"latency_avg_s        = {s.latency_avg:.6g}")
    print(f"overhead_ratio       = {s.overhead_ratio:.6g}")
    print(f"hopcount_avg         = {s.hopcount_avg:.6g}")
    print(f"dropped              = {s.dropped_total}")


def _findings(cfg: scenario.ScenarioConfig) -> list[str]:
    """Scenario invariants plus, for a map file, whether it parses."""
    findings = scenario.validate(cfg)
    if not cfg.map_source.synthetic:
        try:
            engine.load_map_file(cfg.map_source.source)
        except engine.SimulationError as exc:
            findings.append(f"map: {exc}")
    return findings


def cmd_validate(args) -> int:
    if not os.path.exists(args.config):
        print(f"error: no such file: {args.config}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = _load_config(args.config)
    except scenario.ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    findings = _findings(cfg)
    for finding in findings:
        print(finding, file=sys.stderr)
    return EXIT_OK if not findings else EXIT_DOMAIN


def cmd_run(args) -> int:
    if not os.path.exists(args.config):
        print(f"error: no such file: {args.config}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = _load_config(args.config)
    except scenario.ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    seed = args.seed if args.seed is not None else cfg.seed
    try:
        events, summary = engine.run(cfg, seed)
    except engine.SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    os.makedirs(args.out, exist_ok=True)
    reports.write_csv([(cfg.router.protocol, cfg.buffer_bytes, seed, summary)],
                      os.path.join(args.out, "metrics.csv"))
    if args.events:
        _write_events(events, os.path.join(args.out, "events.tsv"))
    _print_summary(summary)
    return EXIT_OK


def _sweep_worker(packed) -> tuple[str, int, int, reports.MetricsSummary]:
    text, protocol, buffer_bytes, seed = packed
    cfg = scenario.parse_scenario(text)
    cfg = scenario.expand_sweep(cfg, "router.protocol", [protocol])[0]
    cfg = scenario.expand_sweep(cfg, "buffer_bytes", [buffer_bytes])[0]
    _, summary = engine.run(cfg, seed)
    return protocol, buffer_bytes, seed, summary


def sweep_runs(config_text: str, protocols: list[str], buffers: list[int],
               seeds: list[int], workers: int | None = None,
               ) -> list[tuple[str, int, int, reports.MetricsSummary]]:
    """Cross-product execution, optionally in parallel; sorted results.

    ``workers`` of None or 0 means one per processor.
    """
    jobs = [(config_text, p, b, s)
            for p in protocols for b in buffers for s in seeds]
    workers = max(1, min(workers or os.cpu_count() or 1, len(jobs)))
    if workers == 1:
        results = [_sweep_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    results.sort(key=lambda item: (item[0], item[1], item[2]))
    return results


def plot_csv(csv_path: str, out_dir: str) -> list[str]:
    """Render the five charts from a metrics CSV; returns written paths."""
    rows = reports.read_csv(csv_path)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for metric in reports.CHART_METRICS:
        path = os.path.join(out_dir, f"{metric}.svg")
        reports.render_bar_chart(metric, rows, path)
        written.append(path)
    return written


def cmd_sweep(args) -> int:
    if not os.path.exists(args.config):
        print(f"error: no such file: {args.config}", file=sys.stderr)
        return EXIT_USAGE
    try:
        buffers = [scenario.parse_size(b) for b in args.buffers.split(",") if b]
        protocols = [p for p in args.protocols.split(",") if p]
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except (ValueError, scenario.ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    threads = os.environ.get("DTNSIM_THREADS") or "0"
    if not threads.isdecimal():
        print(f"error: DTNSIM_THREADS must be a non-negative integer, "
              f"got {threads!r}", file=sys.stderr)
        return EXIT_USAGE
    workers = int(threads)
    if not buffers or not protocols or not seeds:
        print("error: empty sweep axis", file=sys.stderr)
        return EXIT_USAGE
    with open(args.config, "r", encoding="utf-8") as fh:
        config_text = fh.read()
    try:
        cfg = scenario.parse_scenario(config_text)
        findings = _findings(cfg)
        if findings:
            for finding in findings:
                print(finding, file=sys.stderr)
            return EXIT_DOMAIN
        for p in protocols:
            if p not in scenario.PROTOCOLS:
                print(f"error: unknown protocol {p!r}", file=sys.stderr)
                return EXIT_USAGE
        results = sweep_runs(config_text, protocols, buffers, seeds, workers)
    except (scenario.ScenarioError, engine.SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "metrics.csv")
    reports.write_csv(results, csv_path)
    charts = plot_csv(csv_path, args.out)
    manifest = {
        "config": os.path.abspath(args.config),
        "protocols": protocols,
        "buffers": buffers,
        "seeds": seeds,
        "artifacts": [csv_path] + charts,
    }
    with open(os.path.join(args.out, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(results)} runs -> {csv_path}")
    return EXIT_OK


def cmd_plot(args) -> int:
    if not os.path.exists(args.csv):
        print(f"error: no such file: {args.csv}", file=sys.stderr)
        return EXIT_USAGE
    try:
        charts = plot_csv(args.csv, args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"{len(charts)} charts -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtnsim",
        description="Deterministic opportunistic-network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="simulate one scenario")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.add_argument("--events", action="store_true",
                   help="also write the full event log (large for epidemic)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a protocol/buffer/seed cross product")
    p.add_argument("config")
    p.add_argument("--buffers", default="5M,10M,15M,20M")
    p.add_argument("--protocols", default="epidemic,spray-and-wait")
    p.add_argument("--seeds", default="1")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="regenerate charts from a metrics CSV")
    p.add_argument("csv")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
