"""dtnsim benchmark: one workload per call, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0

Workloads: desk-sweep, stadium-spray, stadium-epidemic (see README.md).
``--seed`` makes the workload's inputs (simulation seeds, and for
stadium-epidemic the cut-off duration); the same seed gives the same
inputs.  The call then

1. runs the inputs once in this process as a reference: a Simulation
   ticked by hand, with the brute-force contact and buffer checks at
   sampled ticks and the event-log checks of checks.py at the end; while
   it ticks, set-ups of the run are timed for ``setup_s``;
2. repeats the workload, each repetition in a fresh process
   (perfbench/unit.py), until ``--seconds`` have passed.  With
   ``--trace 0`` the repetitions are untraced and give the end-to-end
   metrics (medians over repetitions).  With ``--trace 1`` each untraced
   repetition is followed by a traced one; they give the per-layer metrics
   and the tracing overhead;
3. compares every repetition's output files with each other and with the
   reference.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (simulation runs) and ``metrics``.  The exit
code is 0 when every run passed every check, 1 when one did not, and 2
when the checkout has no dtnsim sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

WORKLOADS = ("desk-sweep", "stadium-spray", "stadium-epidemic")
DESK_PROTOCOLS = ["epidemic", "spray-and-wait"]
DESK_BUFFERS = [5_000_000, 20_000_000]
DESK_SEEDS = 2
SPRAY_DURATION = "1h"
# stadium epidemic is cut at the first tick boundary where the event log
# reaches this size: buffers saturate near 50k events, and a fixed event
# count keeps the work per seed nearly constant, where a fixed duration
# varies it by a third (the overflow churn starts at seed-dependent times)
EPIDEMIC_EVENTS = 500_000
EPIDEMIC_LIMIT = "1h"
CONTACT_SAMPLES = 20          # ticks per reference run with brute-force checks
SPRAY_ORACLE_SAMPLE = 25      # delivered messages given to the oracle
UNIT_TIMEOUT_S = 170
# while a reference run ticks, every SETUP_SPACING_S host seconds the fastest
# set-up of a short burst is taken; the first of a burst runs with caches the
# ticking has just filled, the others run warm, as in the repetitions
SETUP_SPACING_S = 0.5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "sim_rate": "sim_s/s",
                    "events_per_s": "1/s", "peak_rss_mb": "MB"}


def override(text: str, key: str, value: str) -> str:
    """Replace the single ``key = ...`` line of a scenario text."""
    pattern = re.compile(rf"^{re.escape(key)}\s*=.*$", re.MULTILINE)
    text, n = pattern.subn(f"{key} = {value}", text)
    if n != 1:
        raise ValueError(f"scenario has {n} '{key}' lines, expected 1")
    return text


class Inputs:
    """The generated inputs of one workload and its reference runs."""

    def __init__(self, workload: str, seed: int):
        import checks
        from dtnsim import scenario

        rng = random.Random(f"{workload}/{seed}")
        self.workload = workload
        self.references: list = []
        self.fastest_setup: dict[str, float] = {}
        if workload == "desk-sweep":
            self.config = ROOT / "scenarios" / "desk.cfg"
            self.protocols, self.buffers = DESK_PROTOCOLS, DESK_BUFFERS
            self.seeds = [rng.randrange(1, 2**31) for _ in range(DESK_SEEDS)]
            base_text = self.config.read_text(encoding="utf-8")
            base = scenario.parse_scenario(base_text)
            for sim_seed in self.seeds:
                for protocol in self.protocols:
                    for buffer in self.buffers:
                        cfg = scenario.expand_sweep(base, "router.protocol", [protocol])[0]
                        cfg = scenario.expand_sweep(cfg, "buffer_bytes", [buffer])[0]
                        self.references.append(checks.reference_run(
                            cfg, sim_seed, CONTACT_SAMPLES, rng,
                            on_tick=self.setup_sampler(base_text, protocol,
                                                       buffer, sim_seed)))
            self.events = False
            return

        text = (ROOT / "scenarios" / "stadium.cfg").read_text(encoding="utf-8")
        text = override(text, "buffer_size", "5M")
        self.seeds = [rng.randrange(1, 2**31)]
        self.buffers = [5_000_000]
        if workload == "stadium-spray":
            self.protocols = ["spray-and-wait"]
            text = override(text, "router.protocol", "spray-and-wait")
            text = override(text, "sim_duration", SPRAY_DURATION)
            self.references.append(checks.reference_run(
                scenario.parse_scenario(text), self.seeds[0], CONTACT_SAMPLES, rng,
                oracle_sample=SPRAY_ORACLE_SAMPLE,
                on_tick=self.setup_sampler(text, self.protocols[0], self.buffers[0],
                                           self.seeds[0])))
            self.events = False
        else:
            self.protocols = ["epidemic"]
            text = override(text, "router.protocol", "epidemic")
            limit = override(text, "sim_duration", EPIDEMIC_LIMIT)
            # set-up does not depend on sim_duration, so the limit config
            # stands in for the cut one in the set-up samples
            ref = checks.reference_run(
                scenario.parse_scenario(limit), self.seeds[0], CONTACT_SAMPLES, rng,
                stop_at_events=EPIDEMIC_EVENTS,
                on_tick=self.setup_sampler(limit, self.protocols[0], self.buffers[0],
                                           self.seeds[0]))
            self.references.append(ref)
            text = override(text, "sim_duration", f"{ref.duration:g}")
            self.events = True
        self.config = WORK / f"{workload}.cfg"
        self.config.write_text(text, encoding="utf-8")

    def setup_sampler(self, text: str, protocol: str, buffer: int, seed: int):
        """A reference-run tick hook timing set-ups of this run every
        SETUP_SPACING_S, so that set-up samples spread over the whole call
        and not only over the ends of the repetitions."""
        import unit

        key = unit.run_key(protocol, buffer, seed)
        due = 0.0

        def on_tick() -> None:
            nonlocal due
            if time.perf_counter() >= due:
                took = unit.fastest_setup(text, protocol, buffer, seed,
                                          repeats=3, seconds=0.02)
                self.fastest_setup[key] = min(took, self.fastest_setup.get(key, math.inf))
                due = time.perf_counter() + SETUP_SPACING_S

        return on_tick

    @property
    def runs_per_unit(self) -> int:
        return len(self.protocols) * len(self.buffers) * len(self.seeds)

    def spec(self, out: Path, traced: bool) -> dict:
        return {"workload": self.workload, "config": str(self.config),
                "protocols": self.protocols, "buffers": self.buffers,
                "seeds": self.seeds, "events": self.events,
                "out": str(out), "trace": traced}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_unit(inputs: Inputs, index: int, traced: bool) -> dict:
    """One repetition in a fresh process; returns its result or its error."""
    out = WORK / f"rep{index}"
    spec_path = WORK / f"rep{index}.spec.json"
    result_path = WORK / f"rep{index}.result.json"
    spec_path.write_text(json.dumps(inputs.spec(out, traced)), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "unit.py"), str(spec_path),
                               str(result_path)], cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition {index} exceeded {UNIT_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return {"error": f"repetition {index} exited {proc.returncode}: {tail[0]}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["outputs"] = {p.name: _digest(p) for p in sorted(out.iterdir())}
    result["out"] = out
    events = out / "events.tsv"
    result["events_bytes"] = events.stat().st_size if events.exists() else 0
    return result


def compare_outputs(inputs: Inputs, units: list[dict]) -> list[str]:
    """Repetitions agree byte for byte and match the reference runs."""
    import checks

    first = units[0]
    problems = [f"repetition {i} output files differ from repetition 0"
                for i, u in enumerate(units) if u["outputs"] != first["outputs"]]
    rows = checks.read_csv_rows(str(first["out"] / "metrics.csv"))
    if len(rows) != inputs.runs_per_unit:
        problems.append(f"metrics.csv has {len(rows)} rows for "
                        f"{inputs.runs_per_unit} runs")
    for ref in inputs.references:
        problems += checks.compare_csv_row(ref.counted, rows.get(ref.key))
    if inputs.events:
        ref = inputs.references[0]
        path = first["out"] / "events.tsv"
        if first["outputs"]["events.tsv"] != ref.events_digest:
            problems.append("events.tsv differs from the reference run's event log")
        events = checks.read_events_tsv(str(path))
        problems += checks.compare_csv_row(checks.recount(events), rows.get(ref.key))
    if inputs.workload == "desk-sweep":
        for sim_seed in inputs.seeds:
            digests = {r.contact_digest for r in inputs.references if r.key[2] == sim_seed}
            if len(digests) != 1:
                problems.append(f"seed {sim_seed}: contact events differ across "
                                f"protocols and buffers")
    return problems


def fastest_setup(inputs: Inputs, units: list[dict]) -> dict[str, float]:
    """The fastest set-up of each run, over the reference-run samples and
    every untraced unit."""
    fastest = dict(inputs.fastest_setup)
    for u in units:
        for key, took in u["setup_s"].items():
            fastest[key] = min(took, fastest.get(key, math.inf))
    return fastest


def end_to_end(inputs: Inputs, units: list[dict]) -> dict[str, float]:
    sums = [u["sums"] for u in units]
    return {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "setup_s": sum(fastest_setup(inputs, units).values()),
        "sim_rate": statistics.median(s["sim_seconds"] / s["loop_s"] for s in sums),
        "events_per_s": statistics.median(s["events"] / s["loop_s"] for s in sums),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"]
    layers = {name: statistics.median(u["layers"][name] for u in traced) for name in names}
    layers["cli.events_bytes"] = traced[0]["events_bytes"]
    layers["trace.overhead_s"] = (statistics.median(u["wall_s"] for u in traced)
                                  - statistics.median(u["wall_s"] for u in untraced))
    return layers


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_yield", "_per_contact")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dtnsim" / "__init__.py").is_file():
        print(f"error: no dtnsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    inputs = Inputs(args.workload, args.seed)
    problems = [p for ref in inputs.references for p in ref.problems]
    failed = sum(1 for ref in inputs.references if ref.problems)
    attempted = len(inputs.references)

    units: list[dict] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < args.seconds:
        for flag in ((False, True) if args.trace else (False,)):
            unit = run_unit(inputs, len(units), flag)
            units.append(unit)
            attempted += inputs.runs_per_unit
            if "error" in unit:
                problems.append(unit["error"])
                failed += inputs.runs_per_unit
            else:
                (traced if flag else untraced).append(unit)
        if problems:
            break
    if not problems:
        found = compare_outputs(inputs, units)
        if found:
            problems += found
            failed += inputs.runs_per_unit * len(units)

    metrics: dict[str, float] = {}
    if not problems:
        metrics = per_layer(untraced, traced) if args.trace else end_to_end(inputs, untraced)
    units_of = (layer_unit if args.trace else END_TO_END_UNITS.__getitem__)
    print(f"workload {args.workload}, seed {args.seed}: simulation seeds "
          f"{inputs.seeds}, {inputs.references[0].duration:g} simulated s per run, "
          f"{sum(r.checked_ticks for r in inputs.references)} ticks given the "
          f"brute-force state checks, "
          f"{len(untraced)} untraced and {len(traced)} traced repetitions")
    print("wall_s per repetition: " + " ".join(
        f"{u['wall_s']:.3f}{'T' if 'layers' in u else ''}" for u in untraced + traced))
    if untraced and not args.trace:
        from_units = sum(map(min, zip(*(u["setup_s"].values() for u in untraced))))
        print(f"fastest set-ups summed over runs: {sum(inputs.fastest_setup.values()):.6g} s "
              f"during the reference runs, {from_units:.6g} s after the repetitions")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units_of(name)}")
    print(f"runs attempted = {attempted}, failed = {failed}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
