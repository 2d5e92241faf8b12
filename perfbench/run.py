#!/usr/bin/env python3
"""balacyc benchmark: time to an exact verdict on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload homology --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck        # quick checks on n = 6 / 30
    python3 perfbench/run.py --write-digests    # re-record sweep_digests.json

Every round runs in fresh child processes, one at a time, with
``BALACYC_THREADS=1``, ``PYTHONHASHSEED=0`` and ``PYTHONPATH=src``. With
``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced rounds on the same inputs
and prints the per-layer metrics. Every verdict is checked. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
See README.md next to this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DIGESTS = HERE / "sweep_digests.json"
PY = sys.executable

SETUP_PROBES = 9
CHILD_TIMEOUT = 150  # seconds; a child killed by it counts as failed
IN_PROCESS = ("homology", "lattice")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BALACYC_THREADS="1", PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    return env


def spawn(cmd, payload: bytes | None = None, capture: bool = False):
    """Run one child to its end: (exit code, stdout bytes, peak RSS in MB)."""
    proc = subprocess.Popen(
        [str(c) for c in cmd],
        cwd=ROOT,
        env=child_env(),
        bufsize=0,
        stdin=subprocess.PIPE if payload is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
    )
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    try:
        if payload is not None:
            try:
                proc.stdin.write(payload)
            except BrokenPipeError:
                pass
            proc.stdin.close()
        out = proc.stdout.read() if capture else b""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        if proc.stdout:
            proc.stdout.close()
    return proc.returncode, out, usage.ru_maxrss / 1024


@dataclass
class Round:
    passed: list[bool]
    times: list[float]
    verdict_s: float
    rss_mb: float
    trace: dict | None = None
    digests: dict = field(default_factory=dict)  # sweep seed -> report sha256
    report_bytes: int = 0
    errors: list[str] = field(default_factory=list)


def child_request(items, **options) -> dict:
    """Run child.py on one request and return its result line."""
    code, out, _ = spawn([PY, HERE / "child.py"], json.dumps({"items": items, **options}).encode(), True)
    if code != 0:
        raise RuntimeError(f"child exited with {code}")
    result = json.loads(out.decode().splitlines()[-1])
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"balacyc was imported from {result['module']}, not from {SRC}")
    return result


def setup_probe(workload: str, seed: int) -> float:
    """Seconds for a fresh interpreter to import balacyc and take a round's inputs."""
    start = now()
    items = wl.round_inputs(workload, seed, 0)
    return child_request(items, setup_only=True)["ready"] - start


def inproc_round(items, trace=False, spans=None, force_false=None) -> Round:
    try:
        res = child_request(items, trace=trace, spans=spans, force_false=force_false)
    except (RuntimeError, ValueError, IndexError) as exc:
        return Round([False] * len(items), [], 0.0, 0.0, errors=[f"round failed: {exc}"])
    errors = [e for _, _, e in res["items"] if e]
    return Round(
        [p for p, _, _ in res["items"]],
        [t for _, t, _ in res["items"]],
        res["verdict_s"],
        res["peak_rss_mb"],
        trace=res.get("trace"),
        errors=errors,
    )


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def sweep_round(items, tag: str, trace=False, expected: dict | None = None) -> Round:
    """Consecutive ``balacyc sweep`` invocations, each a fresh process."""
    runs = []
    first = now()
    for j, (_, _, seed) in enumerate(items):
        prefix = WORK / f"{tag}-{j}"
        args = ["sweep", "--seed", seed, "--format", "json", "--out", f"{prefix}.json"]
        cmd = [PY, HERE / "traced_cli.py", prefix, *args] if trace else [PY, "-m", "balacyc", *args]
        start = now()
        code, _, rss = spawn(cmd)
        runs.append((seed, code, now() - start, rss, prefix))
    verdict = now() - first
    rnd = Round([], [], verdict, max(r[3] for r in runs))
    for seed, code, seconds, _, prefix in runs:
        ok, digest = False, None
        report_path = Path(f"{prefix}.json")
        if code == 0 and report_path.exists():
            data = report_path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            rnd.report_bytes += len(data)
            ok = json.loads(data).get("ok") is True
        else:
            rnd.errors.append(f"sweep --seed {seed} exited with {code}")
        if expected is not None and digest != expected.get(str(seed)):
            rnd.errors.append(f"sweep --seed {seed} report sha256 {digest} != recorded {expected.get(str(seed))}")
            ok = False
        if trace:
            summary = json.loads(Path(f"{prefix}.summary.json").read_text()) if code == 0 else None
            rnd.trace = merge_summaries(rnd.trace, summary)
        rnd.passed.append(ok)
        rnd.times.append(seconds)
        rnd.digests[seed] = digest
    return rnd


def play(workload: str, items, tag: str, trace=False, expected=None) -> Round:
    if workload in IN_PROCESS:
        spans = WORK / f"{tag}.spans.jsonl" if trace else None
        return inproc_round(items, trace=trace, spans=str(spans) if spans else None)
    return sweep_round(items, tag, trace=trace, expected=expected)


def merge_summaries(acc: dict | None, summary: dict | None) -> dict:
    acc = acc or {"spans": {}, "counts": {}, "maxes": {}, "min_self_s": float("inf")}
    if not summary:
        return acc
    for name, s in summary["spans"].items():
        entry = acc["spans"].setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += s["calls"]
        entry["self_s"] += s["self_s"]
    for key, value in summary["counts"].items():
        acc["counts"][key] = acc["counts"].get(key, 0) + value
    for key, value in summary["maxes"].items():
        acc["maxes"][key] = max(acc["maxes"].get(key, 0), value)
    acc["min_self_s"] = min(acc["min_self_s"], summary["min_self_s"])
    return acc


def tail(times: list[float]) -> tuple[float, int]:
    """Time at the highest rank that still has ten items beyond it, and that rank (1-based)."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], rank


def end_to_end(rounds: list[Round], setup: list[float]) -> dict:
    times = [t for r in rounds for t in r.times]
    return {
        "setup_s": statistics.median(setup),
        "verdict_s": statistics.median(r.verdict_s for r in rounds),
        "item_p50_s": statistics.median(times),
        "item_tail_s": tail(times)[0],
        "peak_rss_mb": statistics.median(r.rss_mb for r in rounds),
    }


def per_layer(traced: list[Round], untraced: list[Round]) -> dict:
    """Per-layer metrics over all traced rounds of a run (totals, not per round)."""
    acc = None
    for r in traced:
        acc = merge_summaries(acc, r.trace)
    spans, counts, maxes = acc["spans"], acc["counts"], acc["maxes"]
    traced_s = sum(r.verdict_s for r in traced)
    values = {}
    for name in tr.SPAN_NAMES + (tr.ITEM_SPAN,):
        s = spans.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = s["calls"]
        values[f"{name}.self_s"] = s["self_s"]
        values[f"{name}.share"] = s["self_s"] / traced_s
    for layer in tr.LAYERS:
        own = sum(s["self_s"] for n, s in spans.items() if n == layer or n.startswith(layer + "."))
        values[f"{layer}.share"] = own / traced_s
    values.update({key: counts.get(key, 0) for key in tr.COUNT_KEYS})
    values.update({key: maxes.get(key, 0) for key in tr.MAX_KEYS})
    values["cli.report_bytes"] = sum(r.report_bytes for r in traced)
    values["trace.overhead_ratio"] = traced_s / sum(r.verdict_s for r in untraced) - 1
    return values


def emit(spec_metrics, values: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"no value computed for metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def prepare_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()


def require_source() -> None:
    if not (SRC / "balacyc" / "__init__.py").is_file():
        sys.exit(f"error: no balacyc source under {SRC}; run from a full checkout")


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    require_source()
    prepare_work()
    spawn([PY, "-c", "import balacyc, balacyc.cli"])  # untimed: compiles bytecode
    expected = load_digests() if workload == "sweep" else None
    count = max(1, round(seconds / wl.ROUND_SECONDS[workload]))
    inputs = [wl.round_inputs(workload, seed, r) for r in range(max(1, count // 2) if trace else count)]
    print(f"workload {workload} seed {seed}: {len(inputs)} round(s) "
          f"{'untraced+traced' if trace else 'untraced'}, inputs sha256 {wl.inputs_digest(inputs)}")
    setup = [] if trace else [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]

    deadline = now() + min(3 * seconds, 120)
    untraced, traced = [], []
    for r, items in enumerate(inputs):
        if now() > deadline:
            print(f"note: stopped after {r} round(s): past the time guard")
            break
        untraced.append(play(workload, items, f"r{r}", expected=expected))
        if trace:
            traced.append(play(workload, items, f"r{r}-traced", trace=True, expected=expected))

    attempted = sum(len(r.passed) for r in untraced + traced)
    failed = sum(not p for r in untraced + traced for p in r.passed)
    errors = [e for r in untraced + traced for e in r.errors]
    correct = failed == 0 and not errors and bool(untraced)
    for u, t in zip(untraced, traced):
        if u.passed != t.passed or u.digests != t.digests:
            errors.append("traced run gave other verdicts or reports than the untraced run")
            correct = False
    for e in errors[:20]:
        print(f"error: {e}")
    print(f"items: {attempted} attempted, {failed} failed (fail_ratio {failed / max(attempted, 1):.4f})")

    if not any(r.times for r in untraced) or (trace and not any(r.verdict_s for r in traced)):
        metrics = {}
    elif trace:
        metrics = emit(spec["per_layer"], per_layer(traced, untraced))
    else:
        metrics = emit(spec["end_to_end"], end_to_end(untraced, setup))
        times = [t for r in untraced for t in r.times]
        print(f"item_tail_s is item {tail(times)[1]} of {len(times)} in ascending order")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


# ---- self-checks on tiny inputs -------------------------------------------------

def check_bindings_restored() -> bool:
    sys.path.insert(0, str(SRC))
    import balacyc.cli  # noqa: F401

    before = tr.bindings()
    tracer = tr.Tracer()
    tracer.install()
    patched = sum(1 for key, value in tr.bindings().items() if before.get(key) is not value)
    tracer.restore()
    after = tr.bindings()
    same = before.keys() == after.keys() and all(before[k] is after[k] for k in before)
    print(f"  {patched} bindings rebound while installed")
    return patched >= len(tr.TRACED) and same


def count_metrics(rnd: Round) -> dict:
    return {
        "spans": {n: s["calls"] for n, s in rnd.trace["spans"].items()},
        "counts": rnd.trace["counts"],
        "maxes": rnd.trace["maxes"],
    }


def selfcheck() -> int:
    require_source()
    prepare_work()
    expected = load_digests()
    results = {"tracer restores every binding": check_bindings_restored()}

    self_ok, counts_ok, verdicts_ok = True, True, True
    for workload in ("homology", "lattice", "sweep"):
        items = wl.round_inputs(workload, 0, 0, quick=True)
        plain = play(workload, items, f"q-{workload}", expected=expected)
        runs = [play(workload, items, f"q-{workload}-t{i}", trace=True, expected=expected) for i in range(2)]
        for rnd in runs:
            total = sum(s["self_s"] for s in rnd.trace["spans"].values())
            low = rnd.trace["min_self_s"]
            print(f"  {workload}: self times sum to {total:.4f} s of {rnd.verdict_s:.4f} s wall, least span {low:.2e} s")
            self_ok &= total <= rnd.verdict_s and low > -1e-6
        counts_ok &= count_metrics(runs[0]) == count_metrics(runs[1])
        verdicts_ok &= all(plain.passed) and all(
            r.passed == plain.passed and r.digests == plain.digests and not r.errors for r in runs
        )
    results["self times sum to no more than wall time"] = self_ok
    results["count metrics identical across two traced runs"] = counts_ok
    results["traced verdicts and sweep digests equal the untraced ones"] = verdicts_ok

    items = wl.round_inputs("homology", 0, 0, quick=True)
    forced = inproc_round(items, force_false=0)
    failed = sum(not p for p in forced.passed)
    print(f"  forced item: {failed} of {len(forced.passed)} counted as failed")
    results["a forced false verdict counts in fail_ratio"] = failed == 1

    shutil.rmtree(WORK, ignore_errors=True)
    for name, ok in results.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if all(results.values()) else 1


def write_digests() -> int:
    require_source()
    prepare_work()
    items = [["sweep", [], s] for s in range(wl.SWEEP_SEEDS)]
    rnd = sweep_round(items, "digests")
    if not all(rnd.passed):
        print("\n".join(rnd.errors), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps({str(s): d for s, d in rnd.digests.items()}, indent=1) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"recorded {len(rnd.digests)} sweep report digests in {DIGESTS.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(wl.PLANS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="quick checks of the benchmark itself")
    parser.add_argument("--write-digests", action="store_true", help="re-record sweep_digests.json")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if args.write_digests:
        return write_digests()
    if not args.workload:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
