#!/usr/bin/env python3
"""End-to-end benchmark of the wearscope CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch|replay|dirty [--seed N]
        [--seconds S] [--trace 0|1] [--scale quick|compact|paper]
        [--corrupt-seed C]

It builds the release `wearscope` binary and the `perfbench` helper from
source (into $CARGO_TARGET_DIR, default `.bench_build`), sets up the
workload's world through the library, then runs the workload's CLI
command lines as child processes, as a user would, in a closed loop for S
seconds; each round also sets the world up again, which must give the
same files. Every child must exit 0, and every run of a command must give
the same output digest as its first run; batch also checks that 1 and 2
workers give identical output. A failed operation is counted, never
fatal. The last stdout line is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
with tracing off: `setup_s` (median set-up), `cli_s` (the workload's
command lines, each at its fastest run) and `peak_rss_mb` (the largest
command's median peak RSS). With `--trace 1` the run first repeats the
traced in-process run (`perfbench trace`) for half of S, then the
untraced loop for the other half, and reports the per-layer metrics:
medians over the traced runs, plus each command's fastest wall time and
median peak RSS.

The line before the result, `context: {...}`, records what was measured:
seeds, scale, CPUs, commit (when the checkout is a git repository) and a
digest of the sources, records per log, on-disk bytes and the quarantine
summaries. The same context and every sample go to
`.bench_work/results/<workload>-seed<N>-trace<T>.json`.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")

# Fewest rounds per run, so fewest world set-ups; setup_s is their median.
SETUPS = 5
# A child that has not exited by then is killed and counts as failed.
CHILD_TIMEOUT_S = 150
# Layers are named after the crates; only their spans count as covered.
LAYERS = ("synthpop", "trace", "faults", "ingest", "core", "report", "stream")
# The store-scanning analyses the traced run times once each.
ANALYSES = (
    "quality",
    "domain_breakdown",
    "weekly",
    "devices",
    "through_device",
    "daily_active_share",
)
# The commands whose wall time and peak RSS are reported per layer run.
COMMANDS = ("analyze_w1", "analyze_w2", "stream")


@dataclass
class Command:
    """One CLI command line of a workload and the files it writes, all
    relative to the directory it runs in."""

    name: str
    args: list
    # Commands in one group must print identical output.
    group: str
    csv: str = None
    report: str = None
    fresh: list = field(default_factory=list)


def commands(workload, world):
    """The workload's command lines, in the order a user runs them."""
    if workload == "batch":
        return [
            Command(
                f"analyze_w{n}",
                ["analyze", "--world", world, "--workers", str(n), "--full",
                 "--csv", f"analyze_w{n}-csv"],
                group="analyze",
                csv=f"analyze_w{n}-csv",
                fresh=[f"analyze_w{n}-csv"],
            )
            for n in (1, 2)
        ]
    if workload == "replay":
        return [
            Command(
                "stream",
                ["stream", "--world", world, "--checkpoint", "ckpt", "--report",
                 "stream.tsv"],
                group="stream",
                report="stream.tsv",
                fresh=["ckpt", "stream.tsv"],
            )
        ]
    return [
        Command("analyze_w2", ["analyze", "--world", world, "--workers", "2"],
                group="analyze"),
        Command("stream", ["stream", "--world", world], group="stream"),
    ]


class Ledger:
    """Operations attempted and failed; a failure never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def note(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


def remove(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def run_child(bench, argv, cwd, stdout_path, stderr_path):
    """Runs one command to completion: (wall seconds, peak RSS MB, exit
    code).

    The command is started by `perfbench run`, which times it and takes
    its peak RSS from wait4. A process's peak RSS counts what its parent
    had resident when it was started, so a command started from this
    process would read as large as the harness.
    """
    result = stdout_path + ".run"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        launcher = subprocess.Popen([bench, "run", "--result", result, "--", *argv], cwd=cwd,
                                    stdout=out, stderr=err, start_new_session=True)
        try:
            code = launcher.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.wait()
            return CHILD_TIMEOUT_S, 0.0, -signal.SIGKILL
    if code != 0:
        return 0.0, 0.0, code
    with open(result) as f:
        r = json.load(f)
    os.remove(result)
    return r["wall_s"], r["maxrss_kb"] / 1024.0, r["exit"]


def digest_tree(path):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def digest_outputs(cmd, base):
    """Digest of what a command prints and writes under `base`. The stdout
    line naming the CSV directory is left out: it differs by design."""
    h = hashlib.sha256()
    with open(os.path.join(base, cmd.name + ".stdout"), "rb") as f:
        for line in f.read().splitlines(keepends=True):
            if b"CSV figure files written to" not in line:
                h.update(line)
    if cmd.csv:
        h.update(digest_tree(os.path.join(base, cmd.csv)).encode())
    if cmd.report:
        with open(os.path.join(base, cmd.report), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build():
    """Builds both binaries; returns their paths, or exits 1."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "--bin", "wearscope"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ):
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: `{' '.join(argv)}` failed")
    release = os.path.join(target, "release")
    return os.path.join(release, "wearscope"), os.path.join(release, "perfbench")


def set_up(bench, args, out):
    """Writes the workload's world to `out` once: (exit code, wall, tree
    digest, setup report); the last two are None if it failed."""
    remove(out)
    argv = [bench, "setup", "--scale", args.scale, "--seed", str(args.seed), "--out", out]
    if args.workload == "dirty":
        argv += ["--corrupt-seed", str(args.corrupt_seed)]
    stdout = os.path.join(WORK, "setup.stdout")
    wall, _, code = run_child(bench, argv, ROOT, stdout, os.path.join(WORK, "setup.stderr"))
    if code != 0:
        return code, wall, None, None
    with open(stdout) as f:
        report = json.loads(f.read().strip().splitlines()[-1])
    return code, wall, digest_tree(out), report


def measure(cli, bench, args, cmds, world, seconds, ledger, reference):
    """The untraced closed loop, for `seconds` and at least SETUPS rounds.

    Each round runs the command lines once, in order, then sets the world
    up again in a scratch directory, which must match `world` byte for
    byte; so set-up samples spread over the run like the command samples.
    `reference` maps a command group to its expected output digest.
    Returns (set-up walls, setup report, {command: [(wall, rss_mb)]},
    each command's first stderr).
    """
    code, wall, tree, report = set_up(bench, args, world)
    if not ledger.note(code == 0, f"set-up (exit {code})"):
        sys.exit("perfbench: the world set-up failed")
    walls = [wall]
    base = os.path.join(WORK, "cli")
    os.makedirs(base, exist_ok=True)
    samples = {c.name: [] for c in cmds}
    stderr = {}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        rounds += 1
        for c in cmds:
            for path in c.fresh:
                remove(os.path.join(base, path))
            err = os.path.join(base, c.name + ".stderr")
            wall, rss, code = run_child(bench, [cli] + c.args, base,
                                        os.path.join(base, c.name + ".stdout"), err)
            ok = code == 0
            if ok:
                d = digest_outputs(c, base)
                ok = reference.setdefault(c.group, d) == d
            if ledger.note(ok, f"{c.name} (exit {code}, output {'same' if ok else 'differs'})"):
                samples[c.name].append((wall, rss))
            if c.name not in stderr:
                with open(err) as f:
                    stderr[c.name] = f.read()
        code, wall, again, _ = set_up(bench, args, os.path.join(WORK, "world.again"))
        if ledger.note(code == 0 and again == tree, f"set-up again (exit {code}, world "
                       f"{'same' if again == tree else 'differs'})"):
            walls.append(wall)
        if time.perf_counter() >= deadline and rounds >= SETUPS:
            return walls, report, samples, stderr


def span_metrics(trace):
    """Per-layer metrics of one traced run (see BENCHMARK.json)."""
    spans, counts = trace["spans"], trace["counts"]
    dur = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]] += dur[i]

    def root(i):
        while spans[i]["parent"] is not None:
            i = spans[i]["parent"]
        return spans[i]["name"]

    def total(name, under="run"):
        return sum(dur[i] for i, s in enumerate(spans) if s["name"] == name and root(i) == under)

    def calls(name):
        return sum(1 for i, s in enumerate(spans) if s["name"] == name and root(i) == "run")

    def per(num, den):
        return num / den if den else 0.0

    run = next(i for i, s in enumerate(spans) if s["name"] == "run")
    covered = sum(dur[i] - children[i] for i, s in enumerate(spans)
                  if root(i) == "run" and s["name"].split(".")[0] in LAYERS)
    m = {"_run_s": dur[run], "bench.span_coverage": covered / dur[run]}
    for name in ("synthpop.generate", "synthpop.load_meta", "trace.save", "trace.free",
                 "faults.corrupt", "ingest.load_w1", "ingest.load_w2", "ingest.fold_w2",
                 "core.context", "core.fold", "core.takeaways", "report.full",
                 "report.csv", "report.table", "report.stream", "stream.pump"):
        m[name + "_s"] = total(name)
    for name in ANALYSES:
        m[f"core.{name}_s"] = total(f"core.{name}", "probe")
    m["synthpop.events_per_s"] = per(counts["synthpop.events"], m["synthpop.generate_s"])
    parse = total("trace.parse", "probe")
    m["trace.parse_s"] = parse
    m["trace.parse_rec_per_s"] = per(counts["trace.records"], parse)
    m["trace.bytes_per_record"] = per(counts["trace.bytes"], counts["trace.lines"])
    probe_load = total("ingest.load_w1", "probe")
    m["ingest.validate_s"] = probe_load - parse if probe_load else 0.0
    m["ingest.quarantined"] = counts.get("ingest.quarantined", 0)
    m["ingest.fold_speedup"] = per(
        per(m["core.fold_s"], calls("core.fold")),
        per(m["ingest.fold_w2_s"], calls("ingest.fold_w2")),
    )
    pump = m["stream.pump_s"]
    m["stream.source_s"] = counts.get("stream.source_ns", 0) / 1e9
    m["stream.checkpoint_s"] = counts.get("stream.checkpoint_us", 0) / 1e6
    m["stream.runtime_s"] = pump - m["stream.source_s"] - m["stream.checkpoint_s"] if pump else 0.0
    m["stream.rec_per_s"] = per(counts.get("stream.records", 0), pump)
    for name in ("checkpoints", "checkpoint_bytes", "late_merged", "quarantined"):
        m["stream." + name] = counts.get("stream." + name, 0)
    return m


def traced_runs(bench, args, cmds, seconds, ledger):
    """Repeats the traced run for `seconds` (at least once). Returns the
    per-run metrics and each group's output digest of the first run."""
    base = os.path.join(WORK, "traced")
    runs, reference = [], {}
    deadline = time.perf_counter() + seconds
    while True:
        remove(base)
        os.makedirs(base)
        out = os.path.join(base, "trace.json")
        argv = [bench, "trace", "--workload", args.workload, "--scale", args.scale,
                "--seed", str(args.seed), "--corrupt-seed", str(args.corrupt_seed),
                "--work", base, "--json", out]
        _, _, code = run_child(bench, argv, ROOT, os.path.join(WORK, "trace.stdout"),
                               os.path.join(WORK, "trace.stderr"))
        ok = code == 0
        if ok:
            for c in cmds:
                d = digest_outputs(c, base)
                ok = ok and reference.setdefault(c.group, d) == d
        if ledger.note(ok, f"traced run (exit {code}, output {'same' if ok else 'differs'})"):
            with open(out) as f:
                runs.append(span_metrics(json.load(f)))
        if time.perf_counter() >= deadline:
            return runs, reference


def quarantine_counts(stderr):
    """Per-reason counts from the `quality:` / `stream:` summary lines."""
    counts = {}
    for line in stderr.splitlines():
        if line.startswith(("quality:", "stream:")) and "quarantined:" in line:
            reasons = line.split("quarantined:", 1)[1].split(";")[0]
            prefix = line.split(":", 1)[0]
            for n, reason in re.findall(r"(\d+) ([a-z][a-z-]*)", reasons):
                counts[f"{prefix}.{reason}"] = int(n)
    return counts


def source_digest():
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            with open(path, "rb") as f:
                h.update(f.read())
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d != "target")
                for name in sorted(filenames):
                    full = os.path.join(dirpath, name)
                    h.update(os.path.relpath(full, ROOT).encode() + b"\0")
                    with open(full, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_commit():
    """HEAD, when the checkout is itself a git repository."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
    except OSError:
        return None
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("batch", "replay", "dirty"))
    p.add_argument("--seed", type=int, default=7, help="world seed")
    p.add_argument("--corrupt-seed", type=int, default=3, help="corrupt seed (dirty)")
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("quick", "compact", "paper"), default="compact")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit(f"perfbench: {ROOT} holds no wearscope sources to build")
    cli, bench = build()
    for sub in ("world", "world.again", "cli", "traced"):
        remove(os.path.join(WORK, sub))
    os.makedirs(WORK, exist_ok=True)
    world = os.path.join(WORK, "world")
    cmds = commands(args.workload, world)
    ledger = Ledger()

    traced, traced_ref = [], {}
    seconds = args.seconds
    if args.trace:
        seconds = args.seconds / 2
        traced, traced_ref = traced_runs(bench, args, cmds, seconds, ledger)
    reference = {}
    setup_walls, setup_report, samples, stderr = measure(
        cli, bench, args, cmds, world, seconds, ledger, reference)
    log_bytes = sum(os.path.getsize(os.path.join(world, f)) for f in ("proxy.log", "mme.log"))
    for group, d in traced_ref.items():
        ledger.note(reference.get(group) == d, f"traced {group} output equals the CLI's")
    if any(not s for s in samples.values()) or (args.trace and not traced):
        sys.exit("perfbench: an operation never succeeded; no metrics to report")

    # Co-tenant load on a shared host slows stretches of seconds by up to
    # 1.8x (CPU time grows with wall time; nothing is stolen), so a
    # command's median moves with the share of its run that was slowed.
    # Its fastest run is the steady estimate of the program's own cost;
    # every sample is kept in the results file.
    cmd_s = {c: min(w for w, _ in s) for c, s in samples.items()}
    cmd_rss = {c: statistics.median(r for _, r in s) for c, s in samples.items()}
    if args.trace:
        keys = [k for k in traced[0] if not k.startswith("_")]
        metrics = {k: statistics.median(r[k] for r in traced) for k in keys}
        untraced = min(setup_walls) + sum(cmd_s.values())
        fastest = min(r["_run_s"] for r in traced)
        metrics["bench.trace_overhead_share"] = fastest / untraced - 1
        for c in COMMANDS:
            metrics[c + "_s"] = cmd_s.get(c, 0.0)
            metrics[c + "_rss_mb"] = cmd_rss.get(c, 0.0)
    else:
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "cli_s": sum(cmd_s.values()),
            "peak_rss_mb": max(cmd_rss.values()),
        }

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    records = setup_report.get("proxy_records", 0) + setup_report.get("mme_records", 0)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "corrupt_seed": args.corrupt_seed if args.workload == "dirty" else None,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "proxy_records": setup_report.get("proxy_records"),
        "mme_records": setup_report.get("mme_records"),
        "faults_injected": setup_report.get("faults"),
        "log_bytes": log_bytes,
        "bytes_per_record": log_bytes / records if records else None,
        "quarantine": {c: quarantine_counts(e) for c, e in stderr.items()},
        "setup_walls_s": setup_walls,
        "commands": {c: {"runs": len(s), "wall_s": [x[0] for x in s],
                         "rss_mb": [x[1] for x in s]} for c, s in samples.items()},
        "traced_runs": traced,
        "failures": ledger.failures,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    for sub in ("world", "world.again", "cli", "traced"):
        remove(os.path.join(WORK, sub))
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w") as f:
        json.dump({"context": context, "result": result}, f, indent=1)
    print("context: " + json.dumps({k: v for k, v in context.items()
                                    if k not in ("commands", "traced_runs")}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
