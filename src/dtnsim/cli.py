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
from contextlib import nullcontext

from . import engine, reports, scenario

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _read_scenario(path: str) -> str | None:
    """The scenario file's text, or None once an error line is printed."""
    if not os.path.exists(path):
        print(f"error: no such file: {path}", file=sys.stderr)
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _write_events(events, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for time, kind, msg_id, a, b, hops, reason in events:
            fh.write(f"{time:.15g}\t{kind}\t{msg_id}\t{a}\t{b}\t{hops}\t{reason}\n")


def _print_summary(s: reports.MetricsSummary) -> None:
    print(f"delivery_probability = {s.delivery_probability:.6g}")
    print(f"latency_avg_s        = {s.latency_avg:.6g}")
    print(f"overhead_ratio       = {s.overhead_ratio:.6g}")
    print(f"hopcount_avg         = {s.hopcount_avg:.6g}")
    print(f"dropped              = {s.dropped_total}")


def _findings(cfg: scenario.ScenarioConfig) -> list[str]:
    """Scenario invariants and, once those hold, whether the map builds."""
    findings = scenario.validate(cfg)
    if not findings:
        try:
            engine.load_map(cfg.map_source, cfg.seed)
        except engine.SimulationError as exc:
            findings.append(f"map: {exc}")
    return findings


def cmd_validate(args) -> int:
    text = _read_scenario(args.config)
    if text is None:
        return EXIT_USAGE
    try:
        cfg = scenario.parse_scenario(text)
    except scenario.ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    findings = _findings(cfg)
    for finding in findings:
        print(finding, file=sys.stderr)
    return EXIT_OK if not findings else EXIT_DOMAIN


def cmd_run(args) -> int:
    text = _read_scenario(args.config)
    if text is None:
        return EXIT_USAGE
    try:
        cfg = scenario.parse_scenario(text)
    except scenario.ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        seed = cfg.seed if args.seed is None else scenario.parse_seed(args.seed)
    except (ValueError, scenario.ScenarioError) as exc:
        print(f"error: --seed: {exc}", file=sys.stderr)
        return EXIT_USAGE
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


def _record_worker(packed) -> engine.ContactTrace:
    text, seed = packed
    return engine.record_contacts(scenario.parse_scenario(text), seed)


def _sweep_worker(packed) -> tuple[str, int, int, reports.MetricsSummary]:
    text, protocol, buffer_bytes, seed, contacts = packed
    cfg = scenario.parse_scenario(text)
    cfg = scenario.expand_sweep(cfg, "router.protocol", [protocol])[0]
    cfg = scenario.expand_sweep(cfg, "buffer_bytes", [buffer_bytes])[0]
    _, summary = engine.run(cfg, seed, contacts)
    return protocol, buffer_bytes, seed, summary


def sweep_runs(config_text: str, protocols: list[str], buffers: list[int],
               seeds: list[int], workers: int | None = None,
               ) -> list[tuple[str, int, int, reports.MetricsSummary]]:
    """Cross-product execution, optionally in parallel; sorted results.

    Contacts depend on neither the protocol nor the buffer size, so each
    seed's contacts are recorded once and every run of that seed replays
    them.  ``workers`` of None or 0 means one per processor; with more
    than one, a process pool takes the recordings, then the runs.
    """
    runs = len(protocols) * len(buffers) * len(seeds)
    workers = max(1, min(workers or os.cpu_count() or 1, runs))
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        each = map if pool is None else pool.map
        traces = each(_record_worker, [(config_text, s) for s in seeds])
        # seed by seed, so that a serial sweep holds one trace at a time
        jobs = ((config_text, p, b, seed, trace)
                for seed, trace in zip(seeds, traces)
                for p in protocols for b in buffers)
        results = list(each(_sweep_worker, jobs))
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


def _axis(flag: str, text: str, parse) -> list:
    """The parsed values of a comma-separated sweep axis; ValueError when a
    value repeats after parsing."""
    values = [parse(item) for item in text.split(",") if item]
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{flag} repeats {value}")
    return values


def cmd_sweep(args) -> int:
    config_text = _read_scenario(args.config)
    if config_text is None:
        return EXIT_USAGE
    try:
        buffers = _axis("--buffers", args.buffers, scenario.parse_size)
        protocols = _axis("--protocols", args.protocols, str)
        seeds = _axis("--seeds", args.seeds, scenario.parse_seed)
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
    p.add_argument("--seed", default=None)
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
