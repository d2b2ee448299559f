"""Run perfbench on a parent commit and on the working tree in alternated pairs.

    python scripts/bench_pairs.py --parent REV --workload infer_large --pairs 10 \
        --out BENCH_26.json [--workload explain_bags ...] [--claim infer_large:graph_ms_p50]

Each side runs from a fresh copy of its files in a temporary directory: the
parent's committed tree (``git archive REV``, so no worktree is registered
and a killed run leaves nothing in ``.git``) and the working tree's tracked
and untracked files that git does not ignore.  Pair i runs seed
``--first-seed + i`` on both sides, one side after the other; the parent
runs first in even pairs and the change in odd ones.  A run is
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``,
with T the ``run_seconds`` of ``BENCHMARK.json``.

The result file holds, for each workload and end-to-end metric, both sides'
values, medians and quartiles, each pair's change/parent ratio with their
median and quartiles, and the pairs the change won (better by the metric's
direction; ties count for neither), and a no-regression verdict, then every
run's result line.  The verdict reads each metric's ``bound`` in
``BENCHMARK.json`` as a fraction of the parent's median: ``unresolved`` when
the parent's quartile spread, over its median, is wider than the bound and
not every run of the change is better than every run of the parent;
otherwise ``worse`` when the change's median is worse than the parent's by
more than the bound, and ``ok`` when it is not.
A ``--claim W:metric`` is met when the change wins at least nine tenths of
the pairs and its median is better than the parent's by more than the
distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, data: bool = False):
    out = subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True)
    return out.stdout if data else out.stdout.decode().strip()


def checkout_parent(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, data=True))) as tar:
        tar.extractall(dest, filter="data")


def checkout_working_tree(dest: Path) -> None:
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", data=True)
    for name in names.decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a deleted file is still listed as cached
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_bytes(src.read_bytes())


def src_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under src/."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``root``; its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(runs: dict, metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' summaries and the pairs the change won."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        p, c = summary(parent), summary(change)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": p,
            "change": c,
            "pair_ratio": summary([b / a for a, b in zip(parent, change)]),
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "median_change": c["median"] / p["median"] - 1.0 if p["median"] else None,
            "parent_iqr": p["q3"] - p["q1"],
            "verdict": verdict(p, c, sign, metric["bound"]),
        }
    return out


def verdict(parent: dict, change: dict, sign: float, bound: float) -> str:
    """``ok``, ``worse`` or ``unresolved`` for two sides' summaries, ``bound`` relative."""
    scale = bound * abs(parent["median"])
    parent_runs, change_runs = (sign * np.array(x["values"]) for x in (parent, change))
    every_run_better = change_runs.min() > parent_runs.max()
    if parent["q3"] - parent["q1"] > scale and not every_run_better:
        return "unresolved"
    return "worse" if sign * (parent["median"] - change["median"]) > scale else "ok"


def claim_met(entry: dict, pairs: int) -> bool:
    sign = 1.0 if entry["better"] == "higher" else -1.0
    gain = sign * (entry["change"]["median"] - entry["parent"]["median"])
    return bool(entry["change_wins"] >= 0.9 * pairs and gain > entry["parent_iqr"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit the change is measured against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--claim", action="append", default=[], help="workload:metric")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    doc = {
        "benchmark": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds}"
        " --trace 0",
        "parent_commit": parent_commit,
        "method": (
            "scripts/bench_pairs.py: parent and change alternated per pair (parent first in"
            " even pairs), each side from a fresh copy of its files, the same seed on both"
            " sides of a pair"
        ),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for path in sides.values():
            path.mkdir()
        checkout_parent(parent_commit, sides["parent"])
        checkout_working_tree(sides["change"])
        doc["parent_src_sha256"] = src_digest(sides["parent"])
        doc["change_src_sha256"] = src_digest(sides["change"])
        for workload in args.workload:
            seeds = [args.first_seed + i for i in range(args.pairs)]
            runs = {"parent": [], "change": []}
            first_side = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                first_side.append(order[0])
                for side in order:
                    runs[side].append(run_once(sides[side], workload, seed, seconds))
                    print(f"{workload} pair {i} {side} done", file=sys.stderr)
            doc["workloads"][workload] = {
                "pairs": args.pairs,
                "seeds": seeds,
                "first_side": first_side,
                "failed_operations": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                "attempted_operations": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
                "metrics": compare(runs, bench["end_to_end"]),
                "runs": runs,
            }
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    claims = []
    for spec in args.claim:
        workload, metric = spec.split(":")
        entry = doc["workloads"][workload]["metrics"][metric]
        claims.append({"workload": workload, "metric": metric, "met": claim_met(entry, args.pairs)})
    if claims:
        doc["claims"] = claims
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
