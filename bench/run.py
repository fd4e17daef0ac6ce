"""Benchmark of the poinames CLI pipeline on seeded synthetic corpora.

    python3 bench/run.py --workload text-12k --seed 1 --seconds 30 --trace 0

Each pass generates the workload's input from the seed, then runs
``poinames --version`` and the stage list, one child process per CLI
invocation and one at a time. Passes repeat until ``--seconds`` have
elapsed, at least twice. Every child's wall time, CPU time and peak RSS
come from ``os.wait4`` on that child alone. After each pass the outputs
are checked, and every pass must reproduce the first pass byte for byte.

With ``--trace 0`` the metrics are the end-to-end ones (medians over
passes); start-up and per-stage wall times are printed too, marked as not
gated. With ``--trace 1`` one untraced pass is followed by one traced pass,
in which each stage runs under ``traced_stage.py``; the metrics are the
per-layer ones. Each metric is printed as ``name value unit``; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only if
every stage exited 0 and passed every check.

See ``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ENTRY = "import sys; from poinames.cli import main; sys.exit(main())"

# Every child must be gone well inside the 180 s a run may take.
DEADLINE_S = 165.0

INPUT = f"input/{gen.INPUT_FILE}"
MAPPING = f"input/{gen.MAPPING_FILE}"
OUT = "out"

# The stage sequence of each workload. Every workload runs every command,
# so every metric is measured on every workload; the sizes and flags decide
# which layer dominates (see README.md).
PIPELINES = {
    "text-12k": [
        ["ingest", "--input", INPUT, "--mapping", MAPPING, "--out", OUT],
        ["zipf", "--out", OUT],
        ["local-terms", "--out", OUT],
        ["type-usage", "--out", OUT],
        ["vectors", "--mode", "tfidf", "--out", OUT],
        ["embed", "--dim", "50", "--negatives", "5", "--epochs", "1", "--seed", "1", "--out", OUT],
        ["similarity", "--method", "count", "--out", OUT],
        ["similarity", "--method", "embedding", "--out", OUT],
        ["decay", "--method", "count", "--out", OUT],
        ["decay", "--method", "embedding", "--out", OUT],
    ],
    "regions-50": [
        ["ingest", "--input", INPUT, "--out", OUT],
        ["zipf", "--out", OUT],
        ["local-terms", "--out", OUT],
        ["type-usage", "--min-count", "20", "--out", OUT],
        ["vectors", "--mode", "tfidf", "--out", OUT],
        ["embed", "--dim", "300", "--negatives", "5", "--epochs", "2", "--seed", "1", "--out", OUT],
        ["similarity", "--method", "count", "--out", OUT],
        ["similarity", "--method", "embedding", "--out", OUT],
        ["decay", "--method", "count", "--permutations", "20000", "--out", OUT],
    ],
}

STAGES = ("ingest", "zipf", "local_terms", "type_usage", "vectors", "embed", "similarity",
          "decay")


def stage_key(argv: list[str]) -> str:
    return argv[0].replace("-", "_")


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def expected_files(argv: list[str]) -> list[str]:
    """Artifacts a stage invocation must leave in the out directory."""
    cmd = argv[0]
    if cmd == "ingest":
        return ["pois.ndjson", "rejections.tsv", "ingest_summary.txt", "manifest_ingest.txt"]
    if cmd == "zipf":
        return ["zipf_terms.tsv", "zipf_fit.txt", "manifest_zipf.txt"]
    if cmd == "local-terms":
        return ["manifest_local_terms.txt"]
    if cmd == "type-usage":
        return ["usage_matrix.tsv", "usage_counts.tsv", "usage_normalized.tsv",
                "jsd_summary.txt", "manifest_type_usage.txt"]
    if cmd == "vectors":
        mode = _flag(argv, "--mode")
        return [f"vectors_{mode}.tsv", f"manifest_vectors_{mode}.txt"]
    if cmd == "embed":
        return ["model.txt", "embed_summary.txt", "manifest_embed.txt"]
    if cmd == "similarity":
        method = _flag(argv, "--method")
        return [f"similarity_{method}.tsv", "centroids.tsv", "distances.tsv",
                f"manifest_similarity_{method}.txt"]
    if cmd == "decay":
        method = _flag(argv, "--method")
        return [f"decay_observations_{method}.tsv", f"decay_results_{method}.txt",
                f"manifest_decay_{method}.txt"]
    raise ValueError(f"unknown stage {cmd!r}")


# ---------------------------------------------------------------- children


@dataclass
class Invocation:
    argv: list[str]
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    returncode: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.problems


class Runner:
    """Starts one child at a time in the work directory and reaps it with wait4."""

    def __init__(self, workdir: Path, started: float) -> None:
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.log = workdir / "stage.log"

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def run(self, argv: list[str], command: list[str]) -> Invocation:
        timeout = self.remaining()
        if timeout <= 0:
            return Invocation(argv, 0.0, 0.0, 0.0, -1, ["not started: time budget spent"])
        with open(self.log, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(command, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(argv, wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024.0, proc.returncode)
        if proc.returncode != 0:
            tail = self.log.read_text(encoding="utf-8", errors="replace")[-400:]
            inv.problems.append(f"exit code {proc.returncode}: {tail.strip()}")
        return inv

    def cli(self, argv: list[str]) -> Invocation:
        return self.run(argv, [sys.executable, "-c", ENTRY, *argv])

    def traced(self, argv: list[str], spans: Path) -> Invocation:
        return self.run(argv, [sys.executable, str(BENCH / "traced_stage.py"), str(spans), *argv])


# ---------------------------------------------------------------- checks


def _read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def _read_matrix(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")[1:]
    rows, values = [], []
    for line in lines[1:]:
        cells = line.split("\t")
        rows.append(cells[0])
        values.append([float(c) for c in cells[1:]])
    if rows != header or any(len(v) != len(header) for v in values):
        raise ValueError(f"{path.name} is not a square matrix with matching labels")
    return header, values


def _check_matrix(path: Path, diagonal: float, off_positive: bool) -> list[str]:
    labels, m = _read_matrix(path)
    problems = []
    n = len(labels)
    for i in range(n):
        if m[i][i] != diagonal:
            problems.append(f"{path.name}: diagonal [{labels[i]}] is {m[i][i]!r}, not {diagonal}")
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                problems.append(f"{path.name}: not symmetric at ({labels[i]}, {labels[j]})")
            if off_positive and not m[i][j] > 0.0:
                problems.append(f"{path.name}: ({labels[i]}, {labels[j]}) is {m[i][j]!r}")
    return problems[:5]


def check_outputs(inv: Invocation, out: Path, planted: gen.Planted) -> None:
    """Append to ``inv.problems`` every way the stage's outputs are wrong."""
    argv = inv.argv
    missing = [f for f in expected_files(argv) if not (out / f).is_file()]
    if missing:
        inv.problems.append(f"missing artifacts {missing}")
        return
    cmd = argv[0]
    try:
        if cmd == "ingest":
            summary = _read_kv(out / "ingest_summary.txt")
            want = {"accepted": planted.accepted, "rejected": sum(planted.rejected.values()),
                    "regions": planted.regions}
            for key, value in want.items():
                if summary.get(key) != str(value):
                    inv.problems.append(f"ingest_summary {key}={summary.get(key)}, planted {value}")
            reasons: dict[str, int] = {}
            for line in (out / "rejections.tsv").read_text(encoding="utf-8").splitlines()[1:]:
                reason = line.split("\t", 1)[1]
                if reason.startswith(gen.REASON_NO_MAPPING):
                    reason = gen.REASON_NO_MAPPING
                reasons[reason] = reasons.get(reason, 0) + 1
            if reasons != planted.rejected:
                inv.problems.append(f"rejection reasons {reasons} != planted {planted.rejected}")
        elif cmd == "local-terms":
            n = len(list((out / "local_terms").glob("*.tsv")))
            if n != planted.regions:
                inv.problems.append(f"local_terms/ holds {n} tables for {planted.regions} regions")
        elif cmd == "embed":
            losses = _read_kv(out / "embed_summary.txt")["epoch_losses"].split(",")
            if not all(math.isfinite(float(v)) for v in losses):
                inv.problems.append(f"non-finite embedding loss in {losses}")
        elif cmd == "similarity":
            method = _flag(argv, "--method")
            inv.problems += _check_matrix(out / f"similarity_{method}.tsv", 1.0, False)
            inv.problems += _check_matrix(out / "distances.tsv", 0.0, True)
        elif cmd == "decay":
            method = _flag(argv, "--method")
            result = _read_kv(out / f"decay_results_{method}.txt")
            for key in ("pearson_p", "spearman_p"):
                p = float(result[key])
                if not 0.0 < p <= 1.0:
                    inv.problems.append(f"{key}={p!r} outside (0, 1]")
            if method == "count" and not float(result["spearman"]) < 0.0:
                inv.problems.append(
                    f"no distance decay: spearman={result['spearman']} on the planted signal")
    except (OSError, KeyError, IndexError, ValueError) as exc:
        inv.problems.append(f"unreadable output: {exc!r}")


def snapshot(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def owner(relpath: str, pipeline: list[list[str]]) -> int:
    """Index of the last stage in the pipeline that writes ``relpath``."""
    found = len(pipeline) - 1
    for i, argv in enumerate(pipeline):
        if relpath in expected_files(argv) or (
                argv[0] == "local-terms" and relpath.startswith("local_terms/")):
            found = i
    return found


# ---------------------------------------------------------------- passes


@dataclass
class Pass:
    setup_s: float
    startup: Invocation
    stages: list[Invocation]
    wall_s: float
    files: dict[str, str]

    @property
    def invocations(self) -> list[Invocation]:
        return [self.startup, *self.stages]


def set_up(workdir: Path, workload: str, seed: int) -> tuple[gen.Planted, float]:
    """Generate the input and an empty artifact directory; return the plant and seconds."""
    t0 = time.perf_counter()
    shutil.rmtree(workdir / "input", ignore_errors=True)
    shutil.rmtree(workdir / OUT, ignore_errors=True)
    planted = gen.generate(workload, seed, workdir / "input")
    (workdir / OUT).mkdir()
    return planted, time.perf_counter() - t0


def run_pass(runner: Runner, workload: str, seed: int, spans_dir: Path | None = None) -> Pass:
    """Set up afresh, then time ``--version`` and the stage list.

    Set-up is short, so it is sampled once per pass rather than back to
    back: samples spread over the run average out the host's swings in
    speed, which last seconds.
    """
    out = runner.workdir / OUT
    planted, setup_s = set_up(runner.workdir, workload, seed)
    startup = runner.cli(["--version"])
    stages = []
    t0 = time.perf_counter()
    for i, argv in enumerate(PIPELINES[workload]):
        if spans_dir is None:
            inv = runner.cli(argv)
        else:
            inv = runner.traced(argv, spans_dir / f"{i:02d}.json")
        stages.append(inv)
        if inv.returncode != 0:
            break
    wall = time.perf_counter() - t0
    for inv in stages:
        check_outputs(inv, out, planted)
    return Pass(setup_s, startup, stages, wall, snapshot(out))


def compare(first: Pass, later: Pass, pipeline: list[list[str]]) -> None:
    """Charge each artifact that differs from the first pass to the stage writing it."""
    if len(later.stages) != len(pipeline):
        return  # a stage already failed; its exit code is charged
    for rel in sorted(set(first.files) | set(later.files)):
        if first.files.get(rel) != later.files.get(rel):
            later.stages[owner(rel, pipeline)].problems.append(
                f"{rel} differs from the first pass")


def stage_walls(passes: list[Pass], prefix: str = "") -> dict[str, tuple[float, str]]:
    """Median over passes of ``--version`` and of each command's summed wall time.

    These are single short processes whose times swing with host speed by
    more than the widest bound allowed, so they are printed and traced but
    not gated (see README.md).
    """
    med = statistics.median
    walls = {f"{prefix}startup_s": (med(p.startup.wall_s for p in passes), "s")}
    for key in STAGES:
        walls[f"{prefix}{key}_s"] = (
            med(sum(i.wall_s for i in p.stages if stage_key(i.argv) == key) for p in passes), "s")
    return walls


def end_to_end(passes: list[Pass], last_setup_s: float) -> dict[str, tuple[float, str]]:
    med = statistics.median
    return {
        "setup_s": (med([p.setup_s for p in passes] + [last_setup_s]), "s"),
        "pipeline_s": (med(p.wall_s for p in passes), "s"),
        "pipeline_cpu_s": (med(sum(i.cpu_s for i in p.stages) for p in passes), "s"),
        "peak_rss_mb": (med(max(i.maxrss_mib for i in p.stages) for p in passes), "MiB"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool
                 ) -> tuple[dict[str, tuple[float, str]], list[Pass]]:
    """Set up, run the passes and return (metrics, passes) for one workload."""
    started = time.perf_counter()
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir, started)
        pipeline = PIPELINES[workload]
        passes: list[Pass] = []
        t_measure = time.perf_counter()
        while True:
            passes.append(run_pass(runner, workload, seed))
            if len(passes) > 1:
                compare(passes[0], passes[-1], pipeline)
            if not all(i.ok for i in passes[-1].invocations):
                return {}, passes
            elapsed = time.perf_counter() - t_measure
            if trace or (len(passes) >= 2 and elapsed >= seconds):
                break
        if not trace:
            # a last set-up after the passes, so set-up has at least three samples
            return end_to_end(passes, set_up(workdir, workload, seed)[1]), passes

        spans_dir = workdir / "spans"
        spans_dir.mkdir()
        traced = run_pass(runner, workload, seed, spans_dir)
        compare(passes[0], traced, pipeline)
        passes.append(traced)
        if not all(i.ok for i in traced.invocations):
            return {}, passes
        untraced = passes[:-1]
        metrics = layers.per_layer(spans_dir, traced, statistics.median(p.wall_s for p in untraced),
                                   runner.env, workdir / OUT)
        return {**metrics, **stage_walls(untraced, "wall.")}, passes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*PIPELINES, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run passes until this long has been measured (at least two)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    args = parser.parse_args()

    if not (SRC / "poinames" / "cli.py").is_file():
        print(f"error: no poinames sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    workloads = list(PIPELINES) if args.workload == "all" else [args.workload]
    metrics: dict[str, tuple[float, str]] = {}
    ungated: dict[str, tuple[float, str]] = {}
    invocations: list[Invocation] = []
    for workload in workloads:
        measured, passes = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: value for name, value in measured.items()})
        if measured and not args.trace:
            ungated.update({prefix + name: value for name, value in stage_walls(passes).items()})
        for k, p in enumerate(passes, start=1):
            print(f"{workload} pass {k}: setup {p.setup_s:.3f} s, pipeline {p.wall_s:.3f} s, "
                  f"startup {p.startup.wall_s:.3f} s, cpu {sum(i.cpu_s for i in p.stages):.3f} s",
                  file=sys.stderr)
        invocations += [i for p in passes for i in p.invocations]

    failed = [i for i in invocations if not i.ok]
    for inv in failed:
        for problem in inv.problems:
            print(f"FAILED {' '.join(inv.argv)}: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for name, (value, unit) in ungated.items():
        print(f"{name} {value!r} {unit} (not gated)")
    print(f"failed_ratio {len(failed)}/{len(invocations)} = "
          f"{len(failed) / len(invocations)!r} ratio")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
