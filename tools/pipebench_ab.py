#!/usr/bin/env python3
"""A/B-compares pipebench between a base commit and the working tree.

    tools/pipebench_ab.py --base 6366e8a --workloads fleet --seeds 300-309

Run from anywhere inside the checkout. The tool writes nothing into the
checkout or its .git: under a fresh temporary directory (TMPDIR) outside
the checkout it exports the base commit with `git archive` and copies the
working tree's files as `git add -A` would stage them (`git ls-files -co
--exclude-standard`: tracked and untracked files that .gitignore does not
exclude). It builds each side's pipebench there with that side's own
pipebench/run.py, then runs one pair of `python3 pipebench/run.py` runs
per seed and workload, base first on even pairs and change first on odd
ones, so drift on a shared host falls on both sides alike. The temporary
directory is removed on exit, also after an error or an interrupt.

For every end-to-end metric in the working tree's BENCHMARK.json it prints
each side's median [q1-q3] over the pairs, the median of the per-pair
ratios change/base, the pairs the change wins in the metric's direction,
and the gap between the medians against the base's interquartile range.
Each output is a Markdown table, ready to paste into a change log.

Exit status: 0 when every run was correct (`"correct": true`, `failed` 0,
exit 0) and mean_delay_slots, max_delay_slots and mean_data_age_slots are
equal on both sides for every seed; 1 otherwise; 2 on a usage error.
"""

import argparse
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

SEED_FIXED = ("mean_delay_slots", "max_delay_slots", "mean_data_age_slots")
SIDES = ("base", "change")


def git(root, *args):
    """Runs git in `root` and returns its stripped stdout."""
    run = subprocess.run(["git", "-C", root] + list(args), check=True,
                         stdout=subprocess.PIPE)
    return run.stdout.decode().strip()


def parse_seeds(text):
    """'300-309' or '1,5,9' (or a mix) -> a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        if sep:
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError("no seeds")
    return seeds


def export_commit(root, commit, dest):
    """Extracts `commit`'s tree into the new directory `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", root, "archive", commit],
                               stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                       check=True)
    finally:
        archive.stdout.close()
        status = archive.wait()
    if status != 0:
        raise subprocess.CalledProcessError(status, "git archive " + commit)


def export_working_tree(root, dest):
    """Copies into `dest` the files `git add -A` would stage: tracked files
    still present and untracked ones that .gitignore does not exclude."""
    listing = subprocess.run(
        ["git", "-C", root, "ls-files", "-z", "-co", "--exclude-standard"],
        check=True, stdout=subprocess.PIPE).stdout.decode()
    for rel in listing.split("\0"):
        src = os.path.join(root, rel)
        if not rel or not os.path.lexists(src):
            continue
        dst = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst, follow_symlinks=False)


def build(side_root, label):
    """Builds one side's pipebench with that side's own run.py."""
    print("== building %s in %s" % (label, side_root), file=sys.stderr)
    path = os.path.join(side_root, "pipebench", "run.py")
    spec = importlib.util.spec_from_file_location("run_" + label, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.build()


def run_once(side_root, workload, seed, seconds):
    """One pipebench run; returns (result dict or None, problem or None)."""
    cmd = [sys.executable, os.path.join("pipebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(cmd, cwd=side_root, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, check=False)
    lines = run.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "no JSON result (exit %d)" % run.returncode
    if run.returncode != 0 or not result.get("correct") or \
            result.get("failed", 0) != 0:
        return result, "incorrect run (exit %d, correct %s, failed %s)" % (
            run.returncode, result.get("correct"), result.get("failed"))
    return result, None


def quartiles(values):
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt(value):
    """Four significant digits, with a k/M suffix for large values."""
    for scale, suffix in ((1e6, "M"), (1e3, "k")):
        if abs(value) >= scale:
            return "%.4g%s" % (value / scale, suffix)
    return "%.4g" % value


def report(workload, metrics, pairs):
    """Prints one workload's table; `pairs` maps seed -> {side: metrics}."""
    seeds = sorted(pairs)
    print("\n### %s (%d pairs, seeds %s)\n" % (
        workload, len(seeds), ",".join(str(s) for s in seeds)))
    print("| metric | base median [q1-q3] | change median [q1-q3] | "
          "median ratio | wins | gap / base IQR |")
    print("|---|---|---|---|---|---|")
    for metric in metrics:
        name = metric["name"]
        higher = metric["better"] == "higher"
        base = [pairs[s]["base"][name]["value"] for s in seeds]
        change = [pairs[s]["change"][name]["value"] for s in seeds]
        bq, cq = quartiles(base), quartiles(change)
        ratios = [c / b for b, c in zip(base, change) if b != 0]
        wins = sum(1 for b, c in zip(base, change)
                   if (c > b if higher else c < b))
        gap = (cq[1] - bq[1]) if higher else (bq[1] - cq[1])
        iqr = bq[2] - bq[0]
        print("| %s | %s [%s-%s] | %s [%s-%s] | %s | %d/%d | %s / %s |" % (
            name, fmt(bq[1]), fmt(bq[0]), fmt(bq[2]), fmt(cq[1]),
            fmt(cq[0]), fmt(cq[2]),
            "%.3fx" % statistics.median(ratios) if ratios else "-",
            wins, len(seeds), fmt(gap), fmt(iqr)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="commit to compare the working tree against")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: BENCHMARK.json's)")
    parser.add_argument("--seeds", default="1-10",
                        help="one pair per seed, e.g. 300-309 or 1,4,7")
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run (default: BENCHMARK.json's)")
    args = parser.parse_args()
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.error("--seeds: expected N, N-M or a comma list")

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    known = {w["name"] for w in bench["workloads"]}
    for w in workloads:
        if w not in known:
            parser.error("--workloads: unknown workload '%s'" % w)
    seconds = args.seconds if args.seconds is not None else \
        bench["run_seconds"]
    base = git(root, "rev-parse", "--verify", args.base + "^{commit}")

    scratch = os.path.realpath(tempfile.mkdtemp(prefix="pipebench_ab_"))
    if os.path.commonpath([scratch, os.path.realpath(root)]) == \
            os.path.realpath(root):
        os.rmdir(scratch)
        parser.error("the temporary directory must lie outside the checkout "
                     "(set TMPDIR)")
    # An interrupt or a kill still removes the exported trees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    trees = {side: os.path.join(scratch, side) for side in SIDES}
    problems = []
    try:
        export_commit(root, base, trees["base"])
        export_working_tree(root, trees["change"])
        for side in SIDES:
            build(trees[side], side)
        for workload in workloads:
            pairs = {}
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {}
                for side in order:
                    result, problem = run_once(trees[side], workload, seed,
                                               seconds)
                    print("%s seed %d %s: %s" % (
                        workload, seed, side, problem or "ok"),
                        file=sys.stderr)
                    if problem:
                        problems.append("%s seed %d %s: %s" % (
                            workload, seed, side, problem))
                    if result is not None:
                        pair[side] = result.get("metrics", {})
                if len(pair) < 2:
                    continue
                for name in SEED_FIXED:
                    values = [pair[s].get(name, {}).get("value")
                              for s in SIDES]
                    if values[0] != values[1]:
                        problems.append("%s seed %d: %s differs (base %s, "
                                        "change %s)" % (workload, seed, name,
                                                        values[0], values[1]))
                pairs[seed] = pair
            metrics = [m for m in bench["end_to_end"]
                       if all(m["name"] in p[s] for p in pairs.values()
                              for s in SIDES)]
            if pairs:
                report(workload, metrics, pairs)
    except KeyboardInterrupt:
        problems.append("interrupted")
    except (subprocess.CalledProcessError, OSError) as err:
        problems.append("set-up failed: %s" % err)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print("FAIL: " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
