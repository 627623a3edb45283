"""Benchmark runner for spgroth (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every workload is a fixed list of CLI ops
(`spgroth.cli.main(argv)`), run back to back in one fresh child process:
a closed loop with one client, one process and one thread.  Each child
starts with cold caches on purpose, because every CLI invocation pays them.

With --trace 0 the runner first starts a few set-up-only children, then
starts workload children one after another for as long as the next one is
expected to end within S seconds (always at least one).  It reports the
medians over children of

    wall_s       first op start to last op end, inside the child
    setup_s      import of spgroth.cli plus the parser build (probes too)
    peak_rss_mb  the child's own peak RSS (VmHWM, else ru_maxrss from os.wait4)

With --trace 1 it runs one untraced and one traced child and reports the
per-layer metrics of perfbench/tracer.py, plus trace.overhead_s (traced
minus untraced wall_s).

Every op's exit code and stdout sha256 is checked against
perfbench/references.json; an op that raises, exits otherwise or prints
anything else counts in "failed".  The last stdout line is the result
object; the line before it holds the recorded context, which is also
written to perfbench/results/.  Without spgroth under src/ the runner exits
with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
REFERENCES = BENCH / "references.json"
RESULTS = BENCH / "results"

SETUP_PROBES = 7
RUN_LIMIT_S = 170  # children still running then are killed; a run must end within 180 s

# The wide element: a rank-10 fpf involution of fpf length 19, one beta
# step below the top, and Sp-dominant.  Of the four such elements it is the
# one every deep element below descends through.
WIDE = "9,10,8,7,6,5,4,3,1,2"
# The deep elements the seed draws from: the support-10 fpf involutions of
# fpf length <= 2 whose climb to the top (by first ascents, as the family
# recursion climbs) passes through WIDE.  With WIDE cached by the first op,
# every draw pays a similar descent from it; drawing the wide element too
# made runs differ by a third in time and a sixth in memory between seeds.
DEEP = ("2,1,4,3,6,5,9,10,7,8", "2,1,4,3,7,9,5,10,6,8", "2,1,5,6,3,4,9,10,7,8",
        "3,4,1,2,6,5,9,10,7,8")

# Per workload, the per-layer counts that must be nonzero in its traced run;
# a zero means a wrapper no longer reaches the code.  Why each workload
# exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "family-rank10": ("polyring.mul.calls", "polyring.mul.terms_out",
                      "polyring.divided_diff.calls", "polyring.beta_divided_diff.calls",
                      "polyring.peak_terms", "polyring.serialize.terms",
                      "grothendieck.sp_grothendieck.calls",
                      "grothendieck.family.descent_steps", "cli.out_bytes"),
    "stable-window": ("polyring.add.calls", "polyring.mul.calls", "stable.tableaux",
                      "stable.basis_expand.calls", "stable.basis_expand.pivots",
                      "cli.out_bytes"),
    "sweep-rank8": ("polyring.divided_diff.calls", "polyring.beta_divided_diff.calls",
                    "polyring.isobaric.calls", "polyring.truncate.calls", "polyring.eq.calls",
                    "grothendieck.sp_grothendieck.calls", "grothendieck.grothendieck.calls",
                    "grothendieck.family.reuse_ratio", "grothendieck.peel.calls",
                    "grothendieck.peel.pivots", "grothendieck.peel.divided_diff_calls",
                    "grothendieck.transition.calls", "stable.stable_groth_perm.calls",
                    "stable.gp_sp.calls", "stable.verify.calls", "coxeter.calls",
                    "cli.out_bytes"),
}


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def workload_ops(name: str, seed: int) -> tuple[list[list[str]], dict]:
    """The ops of a workload and what the seed drew.  Only family-rank10
    depends on the seed."""
    if name == "family-rank10":
        deep = random.Random(seed).choice(DEEP)
        return ([["compute", "sp-groth", WIDE], ["compute", "sp-groth", deep]],
                {"wide": WIDE, "deep": deep})
    if name == "stable-window":
        return ([["compute", "GP", "3,2,1", "--nvars", "6", "--maxdeg", "10"],
                 ["expand", "GP", "3,1", "--nvars", "6", "--maxdeg", "9", "--basis", "G"],
                 ["expand", "G", "3,2", "--nvars", "6", "--maxdeg", "10"]], {})
    if name == "sweep-rank8":
        return ([["sweep", "sp-recurrence", "--rank", "8"],
                 ["sweep", "f-grass", "--rank", "8"],
                 ["sweep", "lenart-transition", "--rank", "5"],
                 ["sweep", "sp-transition", "--rank", "6"]], {})
    raise ValueError(f"unknown workload {name!r}")


class NoResult(RuntimeError):
    """The program could not be started, or no child finished: there is
    nothing to report."""


def run_child(ops: list[list[str]], trace: bool = False, src: Path = SRC,
              timeout: float = RUN_LIMIT_S) -> dict:
    """Run one child to completion, killing it after timeout seconds.
    Returns its report plus "exit" and "peak_rss_mb"; a child that dies or
    is killed yields a report without "ops".

    peak_rss_mb is the child's VmHWM where it could read it.  The ru_maxrss
    that os.wait4 returns for the child also counts the runner's own peak
    (the kernel carries the high-water mark across exec), so it is only
    the fallback, and is kept beside it as "rusage_maxrss_mb"."""
    spec = json.dumps({"ops": ops, "trace": trace})
    proc = subprocess.Popen([sys.executable, str(CHILD), str(src), spec],
                            stdout=subprocess.PIPE, cwd=str(ROOT))
    # reap with os.wait4 ourselves (Popen.wait would discard the rusage)
    watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
    watchdog.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == 2:
        raise NoResult(f"child could not import spgroth from {src}")
    try:
        report = json.loads(out) if proc.returncode == 0 else {}
    except json.JSONDecodeError:
        report = {}
    report["exit"] = proc.returncode
    report["rusage_maxrss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    report["peak_rss_mb"] = report.get("vm_hwm_mb") or report["rusage_maxrss_mb"]
    return report


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def gate(ops: list[list[str]], report: dict, references: dict) -> list[str]:
    """Names of the ops of one child that failed the output gate."""
    done = report.get("ops")
    if done is None:
        return [op_key(argv) for argv in ops]
    failed = []
    for argv, op in zip(ops, done):
        ref = references.get(op_key(argv))
        if (ref is None or op["error"] is not None or op["exit"] != ref["exit"]
                or op["sha256"] != ref["sha256"]):
            failed.append(op_key(argv))
    return failed


def source_context() -> dict:
    files = sorted((SRC / "spgroth").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"commit": _git_head(), "src_sha256": digest.hexdigest(), "src_lines": lines,
            "python": platform.python_version(), "nproc": os.cpu_count()}


def _git_head() -> str | None:
    """The checked-out commit, read from .git without running git (which
    would search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(ops: list[list[str]], seconds: float, references: dict, deadline: float):
    """Set-up probes, then a closed loop of untraced children.  Returns
    (values, children)."""
    setups = [run_child([], timeout=deadline - time.monotonic())["setup_s"]
              for _ in range(SETUP_PROBES)]
    children = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        report = run_child(ops, timeout=deadline - t0)
        report["elapsed_s"] = time.monotonic() - t0
        report["failed"] = gate(ops, report, references)
        children.append(report)
        typical = statistics.median(c["elapsed_s"] for c in children)
        now = time.monotonic()
        if now - start + typical > seconds or now + typical > deadline:
            break
    done = [c for c in children if "wall_s" in c]
    if not done:
        raise NoResult("no child completed its ops")
    setups += [c["setup_s"] for c in done]
    values = {"wall_s": statistics.median(c["wall_s"] for c in done),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in done)}
    return values, children


def measure_traced(ops: list[list[str]], references: dict, deadline: float):
    """One untraced and one traced child.  Returns (values, children)."""
    plain = run_child(ops, timeout=deadline - time.monotonic())
    traced = run_child(ops, trace=True, timeout=deadline - time.monotonic())
    if "wall_s" not in plain or "layers" not in traced:
        raise NoResult("the untraced or the traced child did not complete")
    for report in (plain, traced):
        report["failed"] = gate(ops, report, references)
    values = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
    return values, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "spgroth" / "cli.py").is_file():
        print(f"run: no spgroth sources under {SRC}", file=sys.stderr)
        return 1
    references = json.loads(REFERENCES.read_text())["ops"]
    ops, drawn = workload_ops(args.workload, args.seed)
    try:
        if args.trace:
            values, children = measure_traced(ops, references, deadline)
        else:
            values, children = measure(ops, args.seconds, references, deadline)
    except NoResult as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    units = metric_units()
    metrics = {key: {"value": value, "unit": units[key]} for key, value in sorted(values.items())}
    failed = [op for c in children for op in c["failed"]]
    missing = [key for key in WORKLOADS[args.workload] if args.trace and not values[key]]

    for key in missing:
        print(f"run: traced run recorded zero for {key} on {args.workload}", file=sys.stderr)
    for op in failed:
        print(f"run: op failed the output gate: {op}", file=sys.stderr)
    context = {
        "workload": args.workload, "seed": args.seed, "drawn": drawn, "trace": args.trace,
        **source_context(),
        "children": [{"wall_s": c.get("wall_s"), "setup_s": c.get("setup_s"),
                      "peak_rss_mb": c["peak_rss_mb"],
                      "rusage_maxrss_mb": c["rusage_maxrss_mb"], "exit": c["exit"],
                      "failed": c["failed"],
                      "op_wall_s": [op["end"] - op["start"] for op in c.get("ops", [])]}
                     for c in children],
        "missing_layer_counts": missing,
    }
    if args.trace:
        context["trace_overhead_ratio"] = values["trace.overhead_s"] / children[0]["wall_s"]
    RESULTS.mkdir(exist_ok=True)
    detail = dict(context, metrics=metrics,
                  spans=children[-1].get("spans", []) if args.trace else [])
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(context))
    result = {"correct": not failed and not missing, "attempted": len(ops) * len(children),
              "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
