"""One benchmark repetition, run by ``run.py`` in a fresh interpreter so that
conjcert's caches (``sl2.rho``, ``sl2._row_convention``, ``fields._gf_cache``)
start empty, as they do for a user of the command line.

Usage: child.py {setup|run|trace} <perf_counter at spawn>, with the JSON
payload {"seed", "bound", "scenarios"} on standard input.  Prints one JSON
line: the set-up time and, unless in setup mode, the build time, the mean
verify pass time, the peak resident set, per-element verdicts and
certificate relations, and in trace mode the per-layer metrics.
"""

import json
import os
import resource
import sys
import time

VERIFY_MIN_S = 1.0
VERIFY_MAX_PASSES = 25

SPAWNED_AT = float(sys.argv[2])
MODE = sys.argv[1]
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import conjcert.cli as cli  # noqa: E402  (the import is part of the timed set-up)

payload = json.load(sys.stdin)
setup_s = time.perf_counter() - SPAWNED_AT
if MODE == "setup":
    print(json.dumps({"setup_s": setup_s}))
    sys.exit(0)

tracer = None
if MODE == "trace":
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()

seed, bound, scenarios = payload["seed"], payload["bound"], payload["scenarios"]
reports = []
started = time.perf_counter()
for scenario in scenarios:
    try:
        reports.append(cli.build_report(scenario, seed, bound))
    except Exception as exc:  # recorded; every element of the scenario fails
        reports.append(f"build_report raised {exc!r}")
build_s = time.perf_counter() - started

if tracer is not None:
    tracer.phase = "verify"
# verify_report is repeated until VERIFY_MIN_S is spent (once when tracing,
# so per-layer counts stay exact) and the mean pass is reported: a single
# pass over small reports lasts only tens of milliseconds, shorter than the
# swings in speed of a shared machine.
passes = []
while not passes or (tracer is None and sum(passes) < VERIFY_MIN_S
                     and len(passes) < VERIFY_MAX_PASSES):
    verdicts = []
    started = time.perf_counter()
    for report in reports:
        if isinstance(report, str):
            verdicts.append(None)
            continue
        try:
            verdicts.append(cli.verify_report(report))
        except Exception as exc:
            verdicts.append([f"verify_report raised {exc!r}"])
    passes.append(time.perf_counter() - started)
verify_s = sum(passes) / len(passes)
peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

summary = []
affine_certificates = 0
for scenario, report, failures in zip(scenarios, reports, verdicts):
    if isinstance(report, str):
        summary.append({"error": report})
        continue
    results = [{"verdicts": r["verdicts"],
                "relations": [c["relation"] for c in r["certificates"]]}
               for r in report["results"]]
    if scenario["kind"] == "affine":
        affine_certificates += sum(len(r["relations"]) for r in results)
    summary.append({"error": "; ".join(failures[:3]) if failures else None,
                    "results": results})

out = {"setup_s": setup_s, "build_s": build_s, "verify_s": verify_s,
       "peak_rss_kb": peak_rss_kb, "scenarios": summary}
if tracer is not None:
    out["trace"] = tracer.metrics(affine_certificates)
print(json.dumps(out))
