#!/usr/bin/env python3
"""Compare the working tree's library with a base revision's, in paired
benchmark runs.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --base HEAD~1 --seeds 1,3 --pairs 10 \\
        --seconds 5 --out BENCH.json

Both sides run from the same kind of checkout: extract() writes each
with `git archive` into a temporary directory, removed at the end.  The
base is the revision's commit; the head is the working tree's tracked
files as `git stash create` commits them (HEAD on a clean tree), so
untracked files are left out of the head.  The JSON's `head` names that
commit and whether the tree was dirty, both read before the first run.
Each pair runs
`perfbench/run.py --trace 0` once in each checkout, the two in turn,
flipping which goes first from pair to pair; each checkout imports its
own `src/`.  For every workload, seed and end-to-end metric the output
holds each run's value, the median and quartiles of each side, the
pairs each side won and a `verdict` (gain, worse, unresolved or no
change; see verdict()), beside every run's `correct` and `failed`, each
side's `checks_passed` (every run correct with 0 failed), the host
(`run.machine()`), and the sha256 and line count (`wc -l
src/mccf/*.py`) of both libraries.  After the pairs of a workload and
seed, each checkout makes one traced pass (TRACED_PASS) over perfbench's
`fit`, `evaluate` and RECOMMENDS `recommend` calls: the JSON holds each
stage's `traced_peak_mib` per side and, in `traced_agree`, whether the
sides agree to TRACED_AGREE.  A traced peak does not follow the
allocator's thresholds, as `peak_rss_mb` does, so it tells a memory
change from heap layout; it sets no verdict.  On the three workloads the
passes add about 17 s of wall time per seed (2-core Xeon, Python 3.11).
It refuses (exit 2) when `perfbench/` differs between the two
checkouts, since that would measure a benchmark change, not a library
change.  It exits 1, after
writing the JSON, when a run of either side is not correct or failed an
operation: such a run times broken work, so its verdicts mean nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
RECOMMENDS = 50
TRACED_AGREE = 1e-3     # sides agree when within this fraction of the base
# Run in a checkout with a workload name, a seed and RECOMMENDS: each
# stage's tracemalloc peak in MiB as one JSON line.  Each stage is traced
# alone, so what an earlier stage left alive (the model) is not counted.
TRACED_PASS = """
import json, sys, tempfile, tracemalloc
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import workloads as wl

w, seed, peaks = wl.WORKLOADS[sys.argv[1]], int(sys.argv[2]), {}

def traced(stage, fn):
    tracemalloc.start()
    out = fn()
    peaks[stage] = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    return out

with tempfile.TemporaryDirectory() as tmp:
    path = wl.input_path(w, Path(tmp))
    wl.write_input(w, seed, path)
    records = wl.parse_input(w, path)
    model = traced("fit", lambda: wl.fit(w, records, seed))
    del records
    traced("evaluate", lambda: wl.evaluate(w, path, seed))
    users = wl.request_users(model, seed)[:int(sys.argv[3])]
    traced("recommend", lambda: [wl.recommend(model, u) for u in users])
print(json.dumps(peaks))
"""


def tree_hash(top: Path) -> str:
    """sha256 over the names and bytes of the files under top, bytecode
    caches left out."""
    h = hashlib.sha256()
    for f in sorted(p for p in top.rglob("*")
                    if p.is_file() and "__pycache__" not in p.parts):
        h.update(f.relative_to(top).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def library_lines(top: Path) -> int:
    """Lines of the modules directly under top, as `wc -l` counts them."""
    return sum(f.read_bytes().count(b"\n") for f in top.glob("*.py"))


def perfbench_run(checkout: Path, workload: str, seed: int,
                  seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in checkout: its last-line JSON."""
    out = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def traced_peaks(checkout: Path, workload: str, seed: int) -> dict:
    """TRACED_PASS in checkout: {stage: traced peak in MiB}."""
    out = subprocess.run(
        [sys.executable, "-c", TRACED_PASS, workload, str(seed), str(RECOMMENDS)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else (values[0],) * 3)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def verdict(summary: dict, values: dict, wins: dict, sign: int,
            bound: float) -> str:
    """One metric's reading of the pairs, sign 1 where lower is better:
    "gain" when the head wins at least nine tenths of the pairs (a tie
    counts for neither side) and its median is better by more than the
    base's interquartile range; "worse" when the head's median is worse
    by more than bound, a fraction of the base median; "unresolved" when
    the base's interquartile range is wider than that bound, unless every
    head run beats every base run; "no change" otherwise."""
    base, head = summary["base"], summary["head"]
    change = sign * (head["median"] - base["median"])
    iqr, allowed = base["q3"] - base["q1"], bound * abs(base["median"])
    if 10 * wins["head"] >= 9 * len(values["head"]) and -change > iqr:
        return "gain"
    if change > allowed:
        return "worse"
    apart = (max(sign * v for v in values["head"])
             < min(sign * v for v in values["base"]))
    if iqr > allowed and not apart:
        return "unresolved"
    return "no change"


def compare(base: Path, head: Path, workloads: list[str], seeds: list[int],
            pairs: int, seconds: float, runner=perfbench_run,
            tracer=traced_peaks) -> dict:
    """The paired comparison of the checkouts base and head, each run made
    by runner(checkout, workload, seed, seconds) and each traced pass by
    tracer(checkout, workload, seed); ValueError when their perfbench/
    directories differ."""
    if tree_hash(base / "perfbench") != tree_hash(head / "perfbench"):
        raise ValueError("perfbench/ differs between the two revisions")
    declared = json.loads((head / "BENCHMARK.json").read_text())["end_to_end"]
    checkouts = dict(zip(SIDES, (base, head)))
    results = {}
    for workload in workloads:
        for seed in seeds:
            runs = {side: [] for side in SIDES}
            for p in range(pairs):
                for side in (SIDES if p % 2 == 0 else SIDES[::-1]):
                    runs[side].append(runner(checkouts[side], workload, seed,
                                             seconds))
            metrics = {}
            for metric in declared:
                name, direction = metric["name"], metric["better"]
                values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                          for side in SIDES}
                sign = 1 if direction == "lower" else -1
                wins = {side: sum(sign * (mine - theirs) < 0 for mine, theirs
                                  in zip(values[side], values[other]))
                        for side, other in zip(SIDES, SIDES[::-1])}
                summary = {side: _summary(values[side]) for side in SIDES}
                metrics[name] = {"better": direction, **summary,
                                 "pair_wins": wins,
                                 "verdict": verdict(summary, values, wins, sign,
                                                    metric["bound"])}
            peaks = {side: tracer(checkouts[side], workload, seed)
                     for side in SIDES}
            results.setdefault(workload, {})[str(seed)] = {
                **{side: {"correct": [r["correct"] for r in runs[side]],
                          "failed": [r["failed"] for r in runs[side]]}
                   for side in SIDES},
                "checks_passed": {side: all(r["correct"] and r["failed"] == 0
                                            for r in runs[side])
                                  for side in SIDES},
                "metrics": metrics,
                "traced_peak_mib": peaks,
                "traced_agree": {stage: abs(peak - peaks["base"][stage])
                                 <= TRACED_AGREE * peaks["base"][stage]
                                 for stage, peak in peaks["head"].items()}}
    library = {side: checkouts[side] / "src" / "mccf" for side in SIDES}
    return {"library_sha256": {side: tree_hash(library[side]) for side in SIDES},
            "library_lines": {side: library_lines(library[side])
                              for side in SIDES},
            "pairs": pairs, "seconds": seconds, "workloads": results}


def _machine() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.machine()


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The files committed at rev, written under dest by `git archive`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare with")
    ap.add_argument("--workloads", default="ml100k-knn30,ml100k-full,mc-knn20",
                    help="comma-separated perfbench workloads")
    ap.add_argument("--seeds", default="1", help="comma-separated seeds")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--out", help="write the JSON here instead of stdout")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be >= 1 and --seconds positive")
    commit = _git("rev-parse", "--verify", args.base + "^{commit}")
    # a commit of the tracked files as they are, or "" on a clean tree
    stash = _git("stash", "create")
    head = {"commit": stash or _git("rev-parse", "HEAD"), "dirty": bool(stash)}
    with tempfile.TemporaryDirectory() as tmp:
        base, work = Path(tmp) / "base", Path(tmp) / "head"
        extract(commit, base)
        extract(head["commit"], work)
        try:
            report = compare(base, work, args.workloads.split(","),
                             [int(s) for s in args.seeds.split(",")],
                             args.pairs, args.seconds)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    text = json.dumps({"base": {"rev": args.base, "commit": commit},
                       "head": head, "machine": _machine(), **report}, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if not all(passed for by_seed in report["workloads"].values()
               for run in by_seed.values()
               for passed in run["checks_passed"].values()):
        print("error: a run failed its checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
