"""Seeded mutations of every file a stage reads, run through main in-process.

Every stage parses its inputs and then checks each one's sha256 against the
manifest of the stage that wrote it, so a mutated input must end in exit 2:
at the parser if the bytes no longer parse, at the check if they do. This
guards two properties at once: each reader fails with a clean error, and
every stage runs the check. The files are the C10 fixture's corpus.tsv,
model.txt, similarity and distance matrices, and every manifest a stage
consults; ingest's own inputs, the NDJSON records and the region mapping,
may give exit 0 or 2.

The mutations: one byte replaced, inserted or cut, and one line dropped,
repeated or swapped. A byte is one of BYTES; half of the offsets are drawn
next to a tab or line end, where cells meet. The sample is fixed by SEED.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from collections import Counter
from pathlib import Path

import pytest

from poinames.cli import main

from conftest import write_dataset
from test_acceptance import STAGES, _run_pipeline

SEED = 20
# "\xc3" is a UTF-8 lead byte without its continuation byte
BYTES = [b"\t", b"\n", b"\r", b"\0", b"\xff", b"\xc3", b"nan", b"inf", b"1e999"]
KINDS = ["replace", "insert", "cut", "drop", "repeat", "swap"]
# mutations drawn per file, each run through one of the stages that read the file
PER_FILE = 72
PER_INGEST_INPUT = 48
INGEST = "manifest_ingest.txt"
# the message of the provenance check, which a mutation that still parses reaches
CHECK = " records: run 'poinames "


def inputs(stage: list[str]) -> dict[str, str]:
    """Each artifact ``stage`` reads, by name under --out, and the manifest recording it."""
    if stage[0] == "decay":
        manifest = f"manifest_similarity_{stage[2]}.txt"
        return {f"similarity_{stage[2]}.tsv": manifest, "distances.tsv": manifest,
                "corpus.tsv": INGEST}
    if stage[:3] == ["similarity", "--method", "embedding"]:
        return {"corpus.tsv": INGEST, "model.txt": "manifest_embed.txt"}
    return {"corpus.tsv": INGEST}


def checked_keys(stage: list[str], manifest: str) -> list[bytes]:
    """The lines of ``manifest`` that ``stage`` checks, by key.

    They are the sha256 that ``manifest`` records of each file the stage
    reads from that manifest's stage, and of corpus.tsv. Every other line
    (tool, version, stage, the options, the sha256 of the files that stage
    wrote and this one does not read) may change without effect.
    """
    return [f"{name}_sha256".encode() for name, recorder in inputs(stage).items()
            if recorder == manifest or name == "corpus.tsv"]


def lines_of(data: bytes, key: bytes) -> list[bytes]:
    return [line for line in data.split(b"\n") if line.startswith(key + b"=")]


def mutations(data: bytes, rng: random.Random, count: int):
    """``count`` (description, bytes) pairs, each a single mutation that changes ``data``."""
    lines = data.split(b"\n")[:-1]
    edges = [i for i, byte in enumerate(data) if byte in b"\t\n"]
    made = 0
    while made < count:
        kind, token = rng.choice(KINDS), rng.choice(BYTES)
        if kind in ("replace", "insert", "cut"):
            if rng.random() < 0.5:
                at = min(rng.choice(edges) + rng.choice((0, 1)), len(data) - 1)
            else:
                at = rng.randrange(len(data))
            described = f"{kind} {token!r} at byte {at}" if kind != "cut" else f"cut byte {at}"
            mutated = {"replace": data[:at] + token + data[at + 1:],
                       "insert": data[:at] + token + data[at:],
                       "cut": data[:at] + data[at + 1:]}[kind]
        else:
            j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
            changed = list(lines)
            if kind == "drop":
                del changed[j]
            elif kind == "repeat":
                changed.insert(j, lines[j])
            else:
                changed[j], changed[k] = lines[k], lines[j]
            described = f"{kind} line {j + 1}" + (f" with line {k + 1}" if kind == "swap" else "")
            mutated = b"".join(line + b"\n" for line in changed)
        if mutated != data:
            made += 1
            yield described, mutated


def snapshot(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def restore(out: Path, files: dict[str, bytes]) -> None:
    shutil.rmtree(out)
    for name, data in files.items():
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_bytes(data)


def run(argv: list[str]) -> tuple[int | str, str]:
    """The exit code of main, or the exception that escaped it, and stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except Exception as exc:  # an exception that escapes main is the finding
            code = f"{type(exc).__name__}: {exc}"[:200]
    return code, stderr.getvalue()


def one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n") \
        and len(err.encode("utf-8")) < 1024


@pytest.fixture(scope="module")
def fixture_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mutations")
    input_path, mapping_path = write_dataset(tmp)
    out = tmp / "artifacts"
    with contextlib.redirect_stdout(io.StringIO()):
        _run_pipeline(input_path, mapping_path, out)
    return input_path, mapping_path, out


def test_every_mutation_of_a_file_a_stage_reads_exits_2_and_leaves_out_unchanged(fixture_out):
    _, _, out = fixture_out
    clean = snapshot(out)
    readers: dict[str, list[list[str]]] = {}
    for stage in STAGES:
        for name in dict.fromkeys([*inputs(stage), *inputs(stage).values()]):
            readers.setdefault(name, []).append(stage)
    rng = random.Random(SEED)
    failures, checked = [], Counter()
    for name, stages in readers.items():
        for i, (described, mutated) in enumerate(mutations(clean[name], rng, PER_FILE)):
            stage = stages[i % len(stages)]
            (out / name).write_bytes(mutated)
            before = snapshot(out)
            code, err = run(stage + ["--out", str(out)])
            # a manifest mutation that leaves the checked lines as they were may have no effect
            inert = name.startswith("manifest_") and all(
                lines_of(mutated, key) == lines_of(clean[name], key)
                for key in checked_keys(stage, name))
            if code != 2 and not (inert and code == 0):
                failures.append(f"{name}: {described}: {' '.join(stage)} gave {code}: {err!r}")
            elif code == 2 and not one_error_line(err):
                failures.append(f"{name}: {described}: {' '.join(stage)} wrote {err!r}")
            checked[name, " ".join(stage)] += code == 2 and CHECK in err
            if snapshot(out) != before:
                failures.append(f"{name}: {described}: {' '.join(stage)} changed --out")
                restore(out, clean)
            (out / name).write_bytes(clean[name])
    assert failures == []
    # a mutation of each file that still parsed reached each stage's provenance check
    assert [pair for pair in ((name, " ".join(stage)) for name, stages in readers.items()
                              for stage in stages if not name.startswith("manifest_"))
            if not checked[pair]] == []


def test_ingest_of_a_mutated_input_or_mapping_exits_0_or_2(fixture_out, tmp_path):
    input_path, mapping_path, _ = fixture_out
    rng = random.Random(SEED)
    failures = []
    for path in (input_path, mapping_path):
        clean = path.read_bytes()
        for described, mutated in mutations(clean, rng, PER_INGEST_INPUT):
            path.write_bytes(mutated)
            out = tmp_path / "out"
            before = snapshot(out)
            code, err = run(["ingest", "--input", str(input_path), "--mapping", str(mapping_path),
                             "--out", str(out)])
            if code not in (0, 2) or (code == 2 and not one_error_line(err)):
                failures.append(f"{path.name}: {described}: ingest gave {code}: {err!r}")
            elif code == 2 and snapshot(out) != before:
                failures.append(f"{path.name}: {described}: ingest exited 2 and changed --out")
        path.write_bytes(clean)
    assert failures == []
