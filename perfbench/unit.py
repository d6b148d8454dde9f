"""One unit of work of one workload, run in a fresh process.

Usage: python3 perfbench/unit.py SPEC.json RESULT.json

SPEC names the workload, its generated inputs, an output directory and
whether to install the layer tracer.  RESULT receives the unit's wall
time, the raw sums behind the end-to-end metrics, this process's own peak
resident memory, and the layer metrics when traced.  Running every unit in
its own process keeps each peak-memory figure free of earlier units.

After the timed workload an untraced unit sets each of its runs up again
(parse, validate, Simulation construction), at least 15 times and for at
least 0.1 s, and reports the fastest of them per run; run.py keeps the
fastest per run over these and its own samples and sums over runs.  See
README.md, "setup_s", for why the fastest and not the median.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402  (found beside this file)


def run_unit(spec: dict) -> None:
    """The workload itself, exactly as a user would drive the public API."""
    from dtnsim import cli, reports, scenario

    out = spec["out"]
    if spec["workload"] == "desk-sweep":
        with open(spec["config"], "r", encoding="utf-8") as fh:
            text = fh.read()
        findings = scenario.validate(scenario.parse_scenario(text))
        if findings:
            raise RuntimeError("; ".join(findings))
        results = cli.sweep_runs(text, spec["protocols"], spec["buffers"],
                                 spec["seeds"], workers=1)
        os.makedirs(out, exist_ok=True)
        csv_path = os.path.join(out, "metrics.csv")
        reports.write_csv(results, csv_path)
        cli.plot_csv(csv_path, out)
        return
    argv = ["run", spec["config"], "--seed", str(spec["seeds"][0]), "--out", out]
    if spec["events"]:
        argv.append("--events")
    if cli.main(argv) != 0:
        raise RuntimeError(f"dtnsim {' '.join(argv)} failed")
    if cli.main(["plot", os.path.join(out, "metrics.csv"), "--out", out]) != 0:
        raise RuntimeError("dtnsim plot failed")


def run_key(protocol: str, buffer: int, seed: int) -> str:
    return f"{protocol}/{buffer}/{seed}"


def setup_once(text: str, protocol: str, buffer: int, seed: int) -> float:
    """Host seconds of one set-up of one run, from the scenario text."""
    from dtnsim import engine, scenario

    start = perf_counter()
    cfg = scenario.parse_scenario(text)
    cfg = scenario.expand_sweep(cfg, "router.protocol", [protocol])[0]
    cfg = scenario.expand_sweep(cfg, "buffer_bytes", [buffer])[0]
    if scenario.validate(cfg):
        raise RuntimeError("scenario does not validate")
    engine.Simulation(cfg, seed)
    return perf_counter() - start


def fastest_setup(text: str, protocol: str, buffer: int, seed: int,
                  repeats: int, seconds: float) -> float:
    """Fastest of at least ``repeats`` set-ups lasting at least ``seconds`` in all.

    The host's speed changes within tens of milliseconds, so a burst of a
    fixed length, not only of a fixed count, keeps a 2 ms desk set-up as
    well sampled as a 10 ms stadium one.
    """
    took = []
    end = perf_counter() + seconds
    while len(took) < repeats or perf_counter() < end:
        took.append(setup_once(text, protocol, buffer, seed))
    return min(took)


def setup_times(spec: dict) -> dict[str, float]:
    """Fastest set-up of each of the unit's runs."""
    with open(spec["config"], "r", encoding="utf-8") as fh:
        text = fh.read()
    return {run_key(p, b, s): fastest_setup(text, p, b, s, repeats=15, seconds=0.1)
            for p in spec["protocols"] for b in spec["buffers"] for s in spec["seeds"]}


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = spans.Tracer()
    spans.install(tracer, layers=spec["trace"])
    start = perf_counter()
    run_unit(spec)
    wall = perf_counter() - start
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sums": spans.end_to_end(tracer),
    }
    if spec["trace"]:
        result["layers"] = spans.per_layer(tracer)
    else:
        result["setup_s"] = setup_times(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
