"""Command-line entry point: validate, run, sweep and plot.

Exit codes: 0 success, 1 domain error (a scenario or CSV that does not
parse, validation findings, a run failure or a run out of memory), 2
usage/IO error (a bad flag, an unreadable input or an unusable
``--out``), 130 interrupted (Ctrl-C).  ``main`` alone turns a failure
into its exit code and stderr lines; the commands only raise.
``DTNSIM_THREADS`` caps sweep parallelism (unset or 0: number of
processors); runs are independent, so parallel execution cannot change
results, and outputs are written in sorted order regardless.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

from . import engine, reports, scenario

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130


class UsageError(Exception):
    """A bad flag, an unreadable input or an unusable output directory."""


class Findings(Exception):
    """A scenario that parses but must not run; one finding per argument."""


def _read(path: str) -> str:
    """The text of an input file, a scenario or a metrics CSV."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _out_dir(path: str) -> None:
    """Make ``path`` a directory, before anything is simulated or written."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use --out {path}: {exc}") from None


def _write_events(events, path: str) -> None:
    """One tab-separated line per event, written 4,096 lines at a time; the
    events of one tick share its time, so each time is formatted once."""
    batch = 4096
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        last = stamp = None
        lines = []
        for time, kind, msg_id, a, b, hops, reason in events:
            if time != last:
                last, stamp = time, f"{time:.15g}"
            lines.append(f"{stamp}\t{kind}\t{msg_id}\t{a}\t{b}\t{hops}\t{reason}\n")
            if len(lines) == batch:
                fh.write("".join(lines))
                lines.clear()
        fh.write("".join(lines))


def _print_summary(s: reports.MetricsSummary) -> None:
    print(f"delivery_probability = {s.delivery_probability:.6g}")
    print(f"latency_avg_s        = {s.latency_avg:.6g}")
    print(f"overhead_ratio       = {s.overhead_ratio:.6g}")
    print(f"hopcount_avg         = {s.hopcount_avg:.6g}")
    print(f"dropped              = {s.dropped_total}")


def _check_runs(cfgs: list[scenario.ScenarioConfig]) -> None:
    """The one check before a command's runs start; ``cfgs`` are the
    configs of those runs.  A finding every run has is raised once, worded
    as ``validate`` words it; one that only some runs have is raised for
    each of them, named by its run.  Only then must the map build: the
    runs differ only in protocol and buffer, so the first names it."""
    checked = [(cfg, scenario.validate(cfg)) for cfg in cfgs]
    shared = [f for f in checked[0][1] if all(f in found for _, found in checked)]
    findings = shared + [
        f"{cfg.router.protocol} {reports.format_bytes(cfg.buffer_bytes)}: {f}"
        for cfg, found in checked for f in found if f not in shared]
    if not findings:
        try:
            engine.load_map(cfgs[0].map_source, cfgs[0].seed)
        except engine.SimulationError as exc:
            findings = [f"map: {exc}"]
    if findings:
        raise Findings(*findings)


def _load_scenario(path: str) -> scenario.ScenarioConfig:
    """The config of a scenario file that reads and parses."""
    return scenario.parse_scenario(_read(path))


def cmd_validate(args) -> None:
    _check_runs([_load_scenario(args.config)])


def cmd_run(args) -> None:
    cfg = _load_scenario(args.config)
    _check_runs([cfg])
    seed = cfg.seed if args.seed is None else _flag("--seed", args.seed,
                                                    scenario.parse_seed)
    _out_dir(args.out)
    events, summary = engine.run(cfg, seed)
    reports.write_csv([(cfg.router.protocol, cfg.buffer_bytes, seed, summary)],
                      os.path.join(args.out, "metrics.csv"))
    if args.events:
        _write_events(events, os.path.join(args.out, "events.tsv"))
    _print_summary(summary)


def _sweep_worker(job) -> tuple[str, int, int, reports.MetricsSummary]:
    cfg, seed, contacts = job
    _, summary = engine.run(cfg, seed, contacts)
    return cfg.router.protocol, cfg.buffer_bytes, seed, summary


def _sweep_configs(base: scenario.ScenarioConfig, protocols: list[str],
                   buffers: list[int]) -> list[scenario.ScenarioConfig]:
    """The checked protocol x buffer configs of a sweep.  The swept fields
    of ``base`` itself are not checked: no run uses them."""
    cfgs = [cfg for p in scenario.expand_sweep(base, "router.protocol", protocols)
            for cfg in scenario.expand_sweep(p, "buffer_bytes", buffers)]
    _check_runs(cfgs)
    return cfgs


def sweep_runs(config_text: str, protocols: list[str], buffers: list[int],
               seeds: list[int], workers: int | None = None,
               ) -> list[tuple[str, int, int, reports.MetricsSummary]]:
    """Cross-product execution, optionally in parallel; sorted results.
    Runs with findings, or a map that does not build, raise ``Findings``
    before any run starts.

    Contacts depend on neither the protocol nor the buffer size, so each
    seed's contacts are recorded once and every run of that seed replays
    them.  ``workers`` of None or 0 means one per processor; with more
    than one, a process pool takes the recordings, then the runs.
    """
    base = scenario.parse_scenario(config_text)
    return _sweep(_sweep_configs(base, protocols, buffers), seeds, workers)


def _sweep(cfgs: list[scenario.ScenarioConfig], seeds: list[int],
           workers: int | None) -> list[tuple[str, int, int, reports.MetricsSummary]]:
    """``sweep_runs`` for the checked run configs ``cfgs``."""
    workers = max(1, min(workers or os.cpu_count() or 1, len(cfgs) * len(seeds)))
    # workers ignore Ctrl-C: the main process alone stops the sweep
    with (ProcessPoolExecutor(max_workers=workers, initializer=signal.signal,
                              initargs=(signal.SIGINT, signal.SIG_IGN))
          if workers > 1 else nullcontext()) as pool:
        each = map if pool is None else pool.map
        # any run's config records them: only the axes differ
        traces = each(engine.record_contacts, [cfgs[0]] * len(seeds), seeds)
        # seed by seed, so that a serial sweep holds one trace at a time
        jobs = ((cfg, seed, trace) for seed, trace in zip(seeds, traces)
                for cfg in cfgs)
        results = list(each(_sweep_worker, jobs))
    results.sort(key=lambda item: (item[0], item[1], item[2]))
    return results


def plot_csv(csv_path: str, out_dir: str) -> list[str]:
    """Render the five charts from a metrics CSV; returns written paths."""
    rows = reports.parse_csv(_read(csv_path))
    _out_dir(out_dir)
    written = []
    for metric in reports.CHART_METRICS:
        path = os.path.join(out_dir, f"{metric}.svg")
        reports.render_bar_chart(metric, rows, path)
        written.append(path)
    return written


def _flag(flag: str, text: str, parse):
    """``parse(text)``; a value it rejects is a usage error."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _axis(flag: str, text: str, parse) -> list:
    """The parsed values of a comma-separated sweep axis, none repeated."""
    values = [_flag(flag, item, parse) for item in text.split(",") if item]
    for i, value in enumerate(values):
        if value in values[:i]:
            raise UsageError(f"{flag} repeats {value}")
    return values


def cmd_sweep(args) -> None:
    base = _load_scenario(args.config)
    buffers = _axis("--buffers", args.buffers, scenario.parse_size)
    protocols = _axis("--protocols", args.protocols, scenario.parse_protocol)
    seeds = ([base.seed] if args.seeds is None
             else _axis("--seeds", args.seeds, scenario.parse_seed))
    if not buffers or not protocols or not seeds:
        raise UsageError("empty sweep axis")
    threads = os.environ.get("DTNSIM_THREADS") or "0"
    if not threads.isdecimal():
        raise UsageError(f"DTNSIM_THREADS must be a non-negative integer, "
                         f"got {threads!r}")
    cfgs = _sweep_configs(base, protocols, buffers)
    _out_dir(args.out)
    results = _sweep(cfgs, seeds, int(threads))
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


def cmd_plot(args) -> None:
    charts = plot_csv(args.csv, args.out)
    print(f"{len(charts)} charts -> {args.out}")


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
    p.add_argument("--protocols", default=",".join(scenario.PROTOCOLS))
    p.add_argument("--seeds", default=None,
                   help="comma-separated seeds (default: the file's seed)")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="regenerate charts from a metrics CSV")
    p.add_argument("csv")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    """Run one command; the one place where a failure becomes an exit code
    and its stderr lines.  Anything else raised is a bug and keeps its
    traceback."""
    args = build_parser().parse_args(argv)
    stopped = None
    try:
        args.func(args)
        return EXIT_OK
    except UsageError as exc:
        code, lines = EXIT_USAGE, [f"error: {exc}"]
    except Findings as exc:
        code, lines = EXIT_DOMAIN, exc.args
    except (scenario.ScenarioError, engine.SimulationError, reports.CsvError) as exc:
        code, lines = EXIT_DOMAIN, [f"error: {exc}"]
    except KeyboardInterrupt:
        code, stopped = EXIT_INTERRUPTED, "interrupted"
    except MemoryError:
        code, stopped = EXIT_DOMAIN, "error: out of memory"
    if stopped is not None:
        # made only here, where a failed run's memory has gone with its
        # exception's frames
        out = getattr(args, "out", None)
        lines = [f"{stopped}: --out {out} is left incomplete"
                 if out and os.path.isdir(out) else stopped]
    for line in lines:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
