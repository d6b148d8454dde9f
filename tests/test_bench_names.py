"""The names the benchmark's layer tracing wraps must still be called.

``perfbench/spans.py`` patches dtnsim functions by name from outside the
package.  A renamed function breaks ``install`` outright; one that is still
defined but no longer called makes its layer metrics read 0.  This runs the
layer install and a tiny desk run per protocol in a fresh process, so the
patching never reaches the rest of the suite.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import dataclasses, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from spans import Tracer, install
tracer = Tracer()
install(tracer, layers=True)
from dtnsim import engine, scenario
text = open({desk!r}, encoding="utf-8").read()
calls = {{}}
for protocol in ("epidemic", "spray-and-wait"):
    cfg = scenario.parse_scenario(text.replace(
        "router.protocol = epidemic", "router.protocol = " + protocol))
    before = dict(tracer.calls)
    engine.run(dataclasses.replace(cfg, sim_duration=600.0), 1)
    calls[protocol] = {{name: n - before[name] for name, n in tracer.calls.items()}}
print(json.dumps(calls))
"""


def test_layer_spans_record_calls_on_both_protocols():
    probe = PROBE.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"),
                         desk=str(ROOT / "scenarios" / "desk.cfg"))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    calls = json.loads(done.stdout)
    for protocol, per_span in calls.items():
        for name in ("routing.offer", "routing.contact_up", "routing.complete",
                     "netcore.begin", "netcore.insert", "netcore.detect",
                     "mobility.step", "engine.run", "engine.loop"):
            assert per_span[name] > 0, (protocol, name, per_span)
