"""End-to-end benchmark of the repo: one command, every metric by name.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in an interpreter of its own: rounds of frozen size until
S seconds have been measured, then three cold starts for ``setup_s``;
prints every metric with its unit and,
as the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``). It exits non-zero on a wrong output.

Without ``--workload`` it runs all six. ``--smoke`` runs every workload
once at 1/20 size with the oracles on. ``--selfcheck`` runs two full sets
back to back and compares them with the bounds (see README.md).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
from common import HERE, SMOKE_DIVISOR, WORKLOADS

PASS_TIMEOUT_S = 150


def run_pass(workload: str, seed: int, divisor: int, trace: bool, seconds: float) -> dict:
    """One pass in a fresh interpreter and its own session; its JSON report.

    Afterwards nothing of the pass may be left running: a survivor in its
    process group is killed and reported as a failure.
    """
    proc = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "passes.py"),
            workload,
            str(seed),
            str(divisor),
            str(int(trace)),
            str(seconds),
        ],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        _kill_group(proc.pid)
        raise
    survivors = _kill_group(proc.pid)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: pass exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    report = json.loads(lines[-1])
    report["table"] = lines[:-1]
    report["attempted"] += 1
    if survivors:
        report["failed"] += 1
        report["notes"].append("a child process outlived its pass")
    return report


def adopt_orphans() -> None:
    """Have the kernel hand this process the orphans of its passes.

    A pass that used multiprocessing leaves its resource tracker behind, and
    so does each of its cold starts: the tracker ends just after the process
    that started it, with nobody left to wait for it. Whether the host's init
    then waits for it is the host's business: where it does not, the tracker
    stays a zombie in the pass's group. As a child subreaper this process is
    handed every such orphan and waits for it itself (``_reap_adopted``).
    """
    pr_set_child_subreaper = 36
    ctypes.CDLL(None).prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def _reap_adopted() -> None:
    """Wait for every child that has ended; the pass itself is not among
    them (``run_pass`` has waited for it already)."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def _group_alive(pgid: int, wait_s: float) -> bool:
    """Whether process group *pgid* still has a member after *wait_s*."""
    deadline = time.monotonic() + wait_s
    while True:
        _reap_adopted()
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        if time.monotonic() >= deadline:
            return True
        time.sleep(0.02)


def _kill_group(pgid: int) -> bool:
    """Kill whatever is left of process group *pgid*; True if anything was.

    multiprocessing's resource tracker exits on its own just after the
    pass does, so the group gets a moment to empty before it counts.
    """
    if not _group_alive(pgid, 5.0):
        return False
    os.killpg(pgid, signal.SIGKILL)
    _group_alive(pgid, 5.0)
    return True


def measure(workload: str, seed: int, seconds: float, trace: bool, divisor: int, spec: dict) -> dict:
    """Run *workload* for *seconds* measured seconds; the result object.

    With *trace*, a second, traced pass of one round gives the per-layer
    numbers; what an untraced pass can tell (and the cost of tracing) comes
    from the untraced one. Both then get half the time, so the pair costs
    about one run.
    """
    if trace:
        seconds /= 2
    plain = run_pass(workload, seed, divisor, False, seconds)
    result = {
        "workload": workload,
        "seed": seed,
        "rounds": plain["rounds"],
        "measured_s": plain["measured_s"],
        "latency_samples": plain["latency_samples"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "notes": plain["notes"],
        "end_to_end": {m["name"]: plain["metrics"][m["name"]] for m in spec["end_to_end"]},
        "table": [],
    }
    if trace:
        traced = run_pass(workload, seed, divisor, True, seconds)
        layers = {**traced["layers"], **plain["layers"]}
        layers["obs.tracing_overhead_x"] = traced["work_s"] / plain["work_s"]
        result["per_layer"] = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        result["extras"] = {**traced["extras"], **plain["extras"]}
        result["table"] = traced["table"]
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["notes"] += traced["notes"]
    return result


def report(result: dict, spec: dict, trace: bool) -> dict:
    """Print *result* for people; return the object for the last line."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(
        f"== {result['workload']}  seed {result['seed']}  {result['rounds']} rounds, "
        f"{result['measured_s']:.2f} s measured, "
        f"{result['latency_samples']} samples behind each latency percentile"
    )
    for name, value in result["end_to_end"].items():
        print(f"{name:<44}{value:>16.4f} {units[name]}")
    if trace:
        for line in result["table"]:
            print(line)
        for name, value in result["per_layer"].items():
            print(f"{name:<44}{value:>16.4f} {units[name]}")
        for name, value in sorted(result["extras"].items()):
            print(f"{name:<44}{value:>16.4f} (not in BENCHMARK.json)")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':<44}{share:>16.6f} ratio ({result['failed']} of {result['attempted']})")
    for note in result["notes"]:
        print(f"  note: {note}")
    chosen = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in chosen.items()},
    }


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selfcheck(
    workloads: list[str], seed: int, seconds: float, repeats: int, spec: dict, out: Path
) -> int:
    """Two sets of *repeats* runs per workload; gaps and spreads vs bounds.

    Both sets use the same seeds (*seed*, *seed* + 1, ...), so the gap
    between their medians is run-to-run noise and nothing else; a set's
    spread also holds what changing the seed changes, as the driver's does.
    A set goes through the workloads seed by seed, not workload by workload:
    a disturbance of the host then touches a run or two of each workload
    instead of most runs of one.
    """
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets: list[dict] = [{w: {name: [] for name in bounds} for w in workloads} for _ in range(2)]
    failed = 0
    for index, results in enumerate(sets):
        for r in range(repeats):
            for workload in workloads:
                run = measure(workload, seed + r, seconds, False, 1, spec)
                failed += run["failed"]
                for name in bounds:
                    results[workload][name].append(run["end_to_end"][name])
            print(f"set {index + 1}: seed {seed + r} done", flush=True)
    noise: dict = {}
    over = 0
    print(f"{'workload':<22}{'metric':<16}{'median 1':>12}{'median 2':>12}"
          f"{'gap':>8}{'spread 1':>10}{'spread 2':>10}{'bound':>7}")
    for workload in workloads:
        for name, bound in bounds.items():
            first, second = (s[workload][name] for s in sets)
            m1, m2 = statistics.median(first), statistics.median(second)
            gap = abs(m2 - m1) / m1
            spreads = [spread(first), spread(second)]
            outside = max(gap, *spreads) > bound
            over += outside
            noise.setdefault(workload, {})[name] = {
                "median_1": m1, "median_2": m2, "gap": gap,
                "spread_1": spreads[0], "spread_2": spreads[1], "bound": bound,
            }
            print(f"{workload:<22}{name:<16}{m1:>12.4f}{m2:>12.4f}{gap:>8.3f}"
                  f"{spreads[0]:>10.3f}{spreads[1]:>10.3f}{bound:>7.2f}"
                  f"{'  OVER' if outside else ''}")
    payload = {
        "env": common.env_stamp(), "seed": seed, "seconds": seconds, "repeats": repeats,
        "over": over, "failed": failed, "noise": noise,
    }
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"{over} (metric, workload) pairs over their bound; {failed} failed operations")
    return 1 if over or failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all six")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="1/20 size, oracles on")
    parser.add_argument("--selfcheck", action="store_true", help="two sets, gaps vs bounds")
    parser.add_argument("--repeats", type=int, default=10, help="runs per set for --selfcheck")
    parser.add_argument(
        "--out", type=Path, help="also write the results (--selfcheck: instead of noise.json) here"
    )
    args = parser.parse_args(argv)

    common.use_repo_source()
    adopt_orphans()
    # A terminated run must take its pass (a session of its own) with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = common.load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    env = common.env_stamp()
    print("env: " + json.dumps(env))
    if args.selfcheck:
        out = args.out or HERE / "noise.json"
        return selfcheck(workloads, args.seed, seconds, args.repeats, spec, out)

    divisor = SMOKE_DIVISOR if args.smoke else 1
    last: dict = {}
    results = []
    for workload in workloads:
        result = measure(workload, args.seed, seconds, bool(args.trace), divisor, spec)
        last = report(result, spec, bool(args.trace))
        results.append(result)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"env": env, "results": results}, indent=1) + "\n")
    if len(workloads) > 1:
        last = {
            "correct": all(r["failed"] == 0 for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
