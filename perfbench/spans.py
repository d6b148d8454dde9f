"""Spans and counters recorded around dtnsim's public functions.

The benchmark patches module attributes from outside the package; dtnsim
itself carries no instrumentation.  Each wrapped call is one span.  A
span's self time is its duration minus the durations of the wrapped calls
it made, so summing self times over all spans never counts an interval
twice.  Spans and counters stay in memory and are folded into metrics once
the unit of work has finished.

``install`` always wraps the few functions the end-to-end metrics need
(tick-loop time, simulated seconds, events); they fire a few times per
simulation run, so their cost is negligible.  Set-up time is measured by
unit.py without spans.  With ``layers=True`` it also wraps every layer
boundary named in the README; that is only done in traced repetitions,
whose wall time minus the untraced wall time is reported as the tracing
overhead.
"""

from __future__ import annotations

from time import perf_counter_ns


class Tracer:
    """Per-span-name call counts, inclusive and self nanoseconds."""

    def __init__(self):
        self.stack: list[list[int]] = []     # child nanoseconds per open span
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper recording span ``name``.

        ``on_return(tracer, args, result)`` updates counters after a call
        that returned normally.
        """
        fn = getattr(owner, attr)
        stack = self.stack
        self.calls.setdefault(name, 0)
        self.total_ns.setdefault(name, 0)
        self.self_ns.setdefault(name, 0)

        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                self.calls[name] += 1
                self.total_ns[name] += took
                self.self_ns[name] += took - children[0]
            if on_return is not None:
                on_return(self, args, result)
            return result

        setattr(owner, attr, traced)


# --- counter hooks -----------------------------------------------------------

def _after_sim_run(tracer: Tracer, args, result) -> None:
    sim = args[0]
    events, _ = result
    tracer.count("runs", 1)
    tracer.count("events", len(events))
    tracer.count("sim_seconds_ms", round(sim.clock * 1000))
    tracer.count("refused", sim.refused)


def _after_detect(tracer: Tracer, args, result) -> None:
    tracer.count("pair_checks", len(args[0].pairs))
    tracer.count("contacts_up", len(result[0]))


def _after_offer(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.count("intents", 1)


def _after_insert(tracer: Tracer, args, result) -> None:
    tracer.count("evictions", len(result[1]))


def install(tracer: Tracer, layers: bool) -> None:
    """Patch dtnsim for one unit of work: probes always, layers if asked."""
    from dtnsim import cli, engine, mobility, netcore, reports, routing, scenario

    sim = engine.Simulation
    tracer.wrap(sim, "run", "engine.loop", _after_sim_run)
    tracer.wrap(sim, "_audit", "engine.audit")
    tracer.wrap(engine, "compute_metrics", "reports.fold")
    if not layers:
        return
    tracer.wrap(scenario, "parse_scenario", "scenario.parse")
    # validate as called before a run (as `dtnsim sweep` does) and inside
    # Simulation construction
    tracer.wrap(scenario, "validate", "scenario.validate")
    tracer.wrap(sim, "__init__", "engine.init")
    tracer.wrap(engine, "run", "engine.run")
    tracer.wrap(engine, "validate", "scenario.validate")
    tracer.wrap(engine, "generate_stadium_map", "worldmap.build")
    tracer.wrap(engine, "parse_map", "worldmap.build")
    tracer.wrap(mobility, "shortest_path", "worldmap.path")
    tracer.wrap(mobility, "step", "mobility.step")
    tracer.wrap(netcore.ContactDetector, "detect", "netcore.detect", _after_detect)
    tracer.wrap(routing, "offer_for_message", "routing.offer", _after_offer)
    tracer.wrap(routing, "on_contact_up", "routing.contact_up")
    tracer.wrap(routing, "on_transfer_complete", "routing.complete")
    tracer.wrap(netcore.TransferPool, "begin", "netcore.begin")
    tracer.wrap(netcore.TransferPool, "advance", "netcore.advance")
    tracer.wrap(netcore.Buffer, "insert", "netcore.insert", _after_insert)
    tracer.wrap(reports, "write_csv", "reports.csv")
    tracer.wrap(reports, "render_bar_chart", "reports.chart")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "sweep_runs", "cli.sweep")
    tracer.wrap(cli, "plot_csv", "cli.plot")


# --- folding spans into metrics ------------------------------------------------

ENGINE_SPANS = ("engine.run", "engine.init", "engine.loop", "engine.audit")
CLI_SPANS = ("cli.main", "cli.sweep", "cli.plot", "reports.csv", "reports.chart")


def end_to_end(tracer: Tracer) -> dict[str, float]:
    """Raw sums for one untraced unit; run.py turns them into metrics."""
    ns = 1e-9
    return {
        "loop_s": tracer.self_ns["engine.loop"] * ns,
        "sim_seconds": tracer.counts.get("sim_seconds_ms", 0) / 1000,
        "events": tracer.counts.get("events", 0),
    }


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Layer metrics of one traced unit (every ``_s`` value is self time)."""
    s = {name: v * 1e-9 for name, v in tracer.self_ns.items()}
    c = tracer.calls
    k = tracer.counts
    intents = k.get("intents", 0)
    return {
        "scenario.parse_s": s["scenario.parse"],
        "scenario.validate_s": s["scenario.validate"],
        "worldmap.build_s": s["worldmap.build"],
        "worldmap.path_calls": c["worldmap.path"],
        "worldmap.path_s": s["worldmap.path"],
        "mobility.step_calls": c["mobility.step"],
        "mobility.step_s": s["mobility.step"],
        "netcore.detect_calls": c["netcore.detect"],
        "netcore.detect_s": s["netcore.detect"],
        "netcore.pair_checks": k.get("pair_checks", 0),
        "netcore.contacts_up": k.get("contacts_up", 0),
        "netcore.checks_per_contact": _ratio(k.get("pair_checks", 0),
                                             k.get("contacts_up", 0)),
        "routing.offer_calls": c["routing.offer"],
        "routing.offer_s": s["routing.offer"],
        "routing.intents": intents,
        "routing.offer_yield": _ratio(intents, c["routing.offer"]),
        "routing.contact_up_calls": c["routing.contact_up"],
        "routing.contact_up_s": s["routing.contact_up"],
        "routing.complete_calls": c["routing.complete"],
        "routing.complete_s": s["routing.complete"],
        "netcore.begin_calls": c["netcore.begin"],
        "netcore.advance_calls": c["netcore.advance"],
        "netcore.advance_s": s["netcore.advance"],
        "netcore.insert_calls": c["netcore.insert"],
        "netcore.insert_s": s["netcore.insert"],
        "netcore.evictions": k.get("evictions", 0),
        "engine.start_yield": _ratio(c["netcore.begin"], intents),
        "engine.self_s": sum(s[name] for name in ENGINE_SPANS),
        "engine.runs": k.get("runs", 0),
        "engine.events": k.get("events", 0),
        "engine.refused": k.get("refused", 0),
        "reports.fold_s": s["reports.fold"],
        "reports.csv_s": s["reports.csv"],
        "reports.chart_s": s["reports.chart"],
        "cli.output_s": sum(s[name] for name in CLI_SPANS),
    }


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
