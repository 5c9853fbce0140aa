"""conjcert benchmark: entry point.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Generates the workload's scenarios from the seed, then for S seconds runs
repetitions one after another, each in a fresh interpreter (child.py): set
up, ``build_report`` over every scenario, ``verify_report`` over every
report.  Every element's verdicts and certificates are checked against the
generator's independent expectations.  With --trace 0 it prints the
end-to-end metrics (medians over repetitions); with --trace 1 it alternates
untraced and traced repetitions and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import PER_LAYER
from workloads import WORKLOADS, CoverageError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "conjcert"
FINGERPRINTS = BENCH / "fingerprints.json"

BOUND = 10_000       # the command line's default order-detection bound
PROGRAM_SEED = 0     # seed handed to build_report; the workload seed shapes the inputs
CHILD_TIMEOUT = 150  # seconds; a repetition beyond this is a hang
SETUP_SAMPLES_PER_REP = 4  # extra set-up-only interpreters per repetition


class BenchError(RuntimeError):
    pass


def spawn(mode: str, payload: bytes) -> dict:
    """Run child.py in a fresh interpreter; it measures set-up from now."""
    spawned_at = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), mode, repr(spawned_at)],
                          input=payload, capture_output=True, timeout=CHILD_TIMEOUT,
                          cwd=ROOT, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} repetition exited with {proc.returncode}:\n"
                         + proc.stderr.decode(errors="replace")[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


def fingerprint(rep: dict) -> str:
    verdicts = [[r["verdicts"] for r in s.get("results", [])] for s in rep["scenarios"]]
    return hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()[:16]


def relation_key(relation):
    return "inverse" if relation == "inverse" else ("power", relation["power"])


def check(rep: dict, expected: list) -> tuple[int, list[str]]:
    """Failed element count and the first few reasons, for one repetition."""
    failed, reasons = 0, []
    for index, (scenario, wanted) in enumerate(zip(rep["scenarios"], expected)):
        results = scenario.get("results", [])
        if scenario.get("error") or len(results) != len(wanted):
            failed += len(wanted)
            reasons.append(f"scenario {index}: {scenario.get('error') or 'result count'}")
            continue
        for position, (result, want) in enumerate(zip(results, wanted)):
            relations = {relation_key(r) for r in result["relations"]}
            problem = None
            if result["verdicts"] != want.verdicts:
                problem = f"verdicts {result['verdicts']} != {want.verdicts}"
            elif not want.required <= relations:
                problem = f"missing certificates {sorted(map(str, want.required - relations))}"
            elif len(result["relations"]) < want.min_certs:
                problem = f"{len(result['relations'])} certificates, expected {want.min_certs}+"
            if problem:
                failed += 1
                reasons.append(f"scenario {index} element {position} ({want.tag}): {problem}")
    return failed, reasons[:5]


def reference_fingerprint(workload: str, seed: int):
    if not FINGERPRINTS.is_file():
        return None
    return json.loads(FINGERPRINTS.read_text()).get(workload, {}).get(str(seed))


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)  # unwinds subprocess.run, which kills the child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: conjcert sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        scenarios, expected = WORKLOADS[args.workload](args.seed)
    except CoverageError as exc:
        print(f"error: workload coverage guard failed: {exc}", file=sys.stderr)
        return 3
    elements = sum(len(e) for e in expected)
    payload = json.dumps({"seed": PROGRAM_SEED, "bound": BOUND,
                          "scenarios": scenarios}).encode()
    compileall.compile_dir(str(PACKAGE), quiet=1)  # the "build": byte-code once

    modes = ("run", "trace") if args.trace else ("run",)
    reps = {mode: [] for mode in modes}
    setups, failed, attempted, reasons, prints = [], 0, 0, [], set()
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            cycle_started = time.perf_counter()
            for _ in range(SETUP_SAMPLES_PER_REP):
                setups.append(spawn("setup", payload)["setup_s"])
            for mode in modes:
                rep = spawn(mode, payload)
                setups.append(rep["setup_s"])
                reps[mode].append(rep)
                rep_failed, rep_reasons = check(rep, expected)
                failed += rep_failed
                attempted += elements
                reasons += rep_reasons
                prints.add(fingerprint(rep))
            # start another cycle only if at least half of it fits
            now = time.perf_counter()
            if now + (now - cycle_started) / 2 > deadline:
                break
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reference = reference_fingerprint(args.workload, args.seed)
    verdict_print = prints.pop() if len(prints) == 1 else None
    if verdict_print is None:
        reasons.append("verdicts differ between repetitions")
        failed = attempted
    elif reference is not None and reference != verdict_print:
        reasons.append(f"verdict fingerprint {verdict_print} != reference {reference}")
        failed = attempted

    runs = reps["run"]
    build = [r["build_s"] for r in runs]
    if args.trace:
        traced = reps["trace"]
        metrics = {"trace.overhead": (median([r["build_s"] for r in traced]) / median(build),
                                      "ratio")}
        for name, unit, nonzero_on in PER_LAYER:
            value = median([r["trace"][name] for r in traced])
            metrics[name] = (value, unit)
            if args.workload in nonzero_on and not value:
                reasons.append(f"per-layer metric {name} is zero on {args.workload}")
                failed = attempted
    else:
        metrics = {
            "setup_s": (median(setups), "s"),
            "build_s": (median(build), "s"),
            "verify_s": (median(r["verify_s"] for r in runs), "s"),
            "elements_per_s": (median(elements / (r["build_s"] + r["verify_s"]) for r in runs),
                               "1/s"),
            "peak_rss_mb": (median(r["peak_rss_kb"] / 1024 for r in runs), "MB"),
        }

    print(f"conjcert benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"repetitions={len(runs)}x{len(modes)} setup_samples={len(setups)}")
    print(f"elements={elements} attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted} fingerprint={verdict_print} "
          f"reference={reference or 'none for this seed'}")
    for reason in reasons[:10]:
        print(f"FAILED: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
