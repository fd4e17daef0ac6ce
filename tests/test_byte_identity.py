"""The stages give the committed bytes, or the committed values, on fixed corpora.

Text stages (ingest, zipf, local-terms, type-usage, vectors): each artifact
other than a manifest, and the stdout of each stage, is compared by sha256
with tests/data/text_stage_digests.json. They run on the C10 fixture, and
on the benchmark's text-12k corpus at seed 1 (10 regions, Unicode names),
which bench/gen.py writes; that corpus's digests are keyed "text-12k/...".
These stages import no numpy. The C10 fixture is ASCII, so its digests
hold on every supported Python; the text-12k names are tokenized with the
Unicode data of the running Python.

Numpy stages (embed, and similarity and decay with --method count, tfidf
and embedding), run on the same two corpora and compared with
tests/data/numpy_stage_reference.json, whose text-12k keys also start with
"text-12k/":

- centroids.tsv, distances.tsv and the stdout of similarity hold no value
  that numpy computes (centroids and Vincenty distances use only Python's
  math), so they are pinned by sha256.
- model.txt, embed_summary.txt, similarity_<method>.tsv,
  decay_observations_<method>.tsv, decay_results_<method>.txt and the
  stdout of embed and decay must have the committed header line, labels,
  keys and row order exactly. Numbers, each model value and each epoch
  loss among them, agree to a relative tolerance of REL_TOL (ABS_TOL near
  0), because numpy's reductions and BLAS kernels may round differently on
  another numpy version or CPU.
- The p-values are draws of numpy's permutation stream, so they are only
  checked to lie in (0, 1].

A change that alters one of these files on purpose rewrites both reference
files by running this module, which first prints each key it adds, removes
or changes in either file; name each changed file:

    PYTHONPATH=src python tests/test_byte_identity.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
import types
from pathlib import Path

from poinames.cli import main

from conftest import write_dataset
from test_acceptance import STAGES

DATA = Path(__file__).resolve().parent / "data"
BENCH_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
BENCH_WORKLOAD, BENCH_SEED = "text-12k", 1
DIGESTS = DATA / "text_stage_digests.json"
NUMPY_REFERENCE = DATA / "numpy_stage_reference.json"
TEXT_STAGES = [stage for stage in STAGES
               if stage[0] in ("zipf", "local-terms", "type-usage", "vectors")]
NUMPY_STAGES = [stage for stage in STAGES if stage[0] in ("embed", "similarity", "decay")]
PINNED = ("centroids.tsv", "distances.tsv", "stdout of similarity")
COMPARED = ("model.txt", "embed_summary.txt", "similarity_", "decay_", "stdout of embed",
            "stdout of decay")
REL_TOL = 1e-9
ABS_TOL = 1e-12
# cells and values compared as text: labels, counts and names
EXACT_FIELDS = {"header", "kind", "region", "region_a", "region_b", "method", "n", "p_method",
                "permutations", "seed", "dim", "negatives", "epochs", "pairs"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def bench_gen() -> types.ModuleType:
    """bench/gen.py as a module, run from its source so that nothing is written under bench/."""
    gen = types.ModuleType("bench_gen")
    sys.modules[gen.__name__] = gen  # dataclasses looks up the module of each class
    exec(compile(BENCH_GEN.read_text(encoding="utf-8"), str(BENCH_GEN), "exec"), gen.__dict__)
    return gen


def run_fixture(tmp: Path, stages: list[list[str]]) -> dict[str, bytes]:
    """Run ingest, then ``stages``, on the C10 fixture in ``tmp``; see run_stages."""
    return run_stages(tmp, *write_dataset(tmp), stages)


def run_stages(tmp: Path, input_path: Path, mapping_path: Path,
               stages: list[list[str]]) -> dict[str, bytes]:
    """Ingest ``input_path`` with ``mapping_path`` into ``tmp``/artifacts, then run ``stages``.

    Returns each stage's stdout, as "stdout of <argv>", and each artifact
    other than a manifest, by its name under --out.
    """
    out = tmp / "artifacts"
    outputs = {}
    for stage in [["ingest"]] + stages:
        argv = stage + ["--out", str(out)]
        if stage == ["ingest"]:
            argv += ["--input", str(input_path), "--mapping", str(mapping_path)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0, stage
        outputs["stdout of " + " ".join(stage)] = stdout.getvalue().encode("utf-8")
    for path in sorted(out.rglob("*")):
        if path.is_file() and not path.name.startswith("manifest_"):
            outputs[path.relative_to(out).as_posix()] = path.read_bytes()
    return outputs


def run_both(tmp: Path, stages: list[list[str]]) -> dict[str, bytes]:
    """run_stages on the C10 fixture and on the bench corpus, in ``tmp``.

    The outputs of the C10 fixture are keyed by name, those of the bench
    corpus by "text-12k/" and the name.
    """
    fixture, bench = tmp / "fixture", tmp / BENCH_WORKLOAD
    fixture.mkdir()
    outputs = run_fixture(fixture, stages)
    gen = bench_gen()
    gen.generate(BENCH_WORKLOAD, BENCH_SEED, bench)
    outputs.update((f"{BENCH_WORKLOAD}/{name}", data) for name, data in
                   run_stages(bench, bench / gen.INPUT_FILE, bench / gen.MAPPING_FILE,
                              stages).items())
    return outputs


def text_stage_digests(tmp: Path) -> dict[str, str]:
    """The digest of every stdout and non-manifest artifact of the text stages, run in ``tmp``."""
    return {name: _sha256(data) for name, data in run_both(tmp, TEXT_STAGES).items()}


def numpy_stage_reference(tmp: Path) -> dict[str, dict[str, str]]:
    """The sha256 of each PINNED output of the numpy stages, and the text of each other one."""
    outputs = {name: (name.removeprefix(f"{BENCH_WORKLOAD}/"), data)
               for name, data in run_both(tmp, NUMPY_STAGES).items()}
    return {
        "sha256": {name: _sha256(data) for name, (base, data) in outputs.items()
                   if base.startswith(PINNED)},
        "values": {name: data.decode("utf-8") for name, (base, data) in outputs.items()
                   if base.startswith(COMPARED)},
    }


def fields(text: str) -> list[tuple[str, str]]:
    """(field, value) for each value of a table, key=value file or model, in file order.

    A key=value line gives one value per comma-separated item. A table
    cell's field is its column's header, and the header line is one value
    of field "header". A model's key=value header line is one value of field
    "header", and each row gives its kind, its region and its values.
    """
    lines = text.splitlines()
    if "\t" not in lines[0]:
        return [(key, item) for key, value in (line.split("=", 1) for line in lines)
                for item in value.split(",")]
    if "=" in lines[0]:
        cells = [("header", lines[0])]
        for line in lines[1:]:
            kind, region, values = line.split("\t")
            cells += [("kind", kind), ("region", region)] + [("value", v) for v in values.split()]
        return cells
    header = lines[0].split("\t")
    cells = [("header", lines[0])]
    for line in lines[1:]:
        row = line.split("\t")
        cells.extend(zip(header, row) if len(row) == len(header) else [("row", line)])
    return cells


def agrees(field: str, found: str, expected: str) -> bool:
    if field.endswith("_p"):
        return 0.0 < float(found) <= 1.0
    if field in EXACT_FIELDS:
        return found == expected
    return math.isclose(float(found), float(expected), rel_tol=REL_TOL, abs_tol=ABS_TOL)


def test_text_stages_are_byte_identical_to_the_committed_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    found = text_stage_digests(tmp_path)
    assert sorted(found) == sorted(expected)
    assert [name for name in expected if found[name] != expected[name]] == []


def test_numpy_stages_give_the_committed_digests_and_values(tmp_path):
    expected = json.loads(NUMPY_REFERENCE.read_text(encoding="utf-8"))
    found = numpy_stage_reference(tmp_path)
    assert found["sha256"] == expected["sha256"]
    assert sorted(found["values"]) == sorted(expected["values"])
    for name, text in expected["values"].items():
        want, got = fields(text), fields(found["values"][name])
        assert [field for field, _ in got] == [field for field, _ in want], name
        assert [(field, g, w) for (field, g), (_, w) in zip(got, want)
                if not agrees(field, g, w)] == [], name


def flatten(tree: dict, prefix: str = "") -> dict[str, str]:
    """The leaves of nested dicts, keyed by their path joined with "/"."""
    leaves = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            leaves.update(flatten(value, f"{prefix}{key}/"))
        else:
            leaves[prefix + key] = value
    return leaves


def report_changes(path: Path, found: dict) -> None:
    """Print one line for each key that ``found`` adds to, removes from or changes in ``path``."""
    old = flatten(json.loads(path.read_text(encoding="utf-8"))) if path.is_file() else {}
    new = flatten(found)
    for key in sorted(old.keys() | new.keys()):
        change = ("added" if key not in old else "removed" if key not in new
                  else "changed" if old[key] != new[key] else None)
        if change:
            print(f"{path.name}: {change} {key}")


def test_report_changes_names_each_added_removed_and_changed_key(tmp_path, capsys):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"sha256": {"a": "1", "b": "2"}, "values": {"c": "x"}}))
    report_changes(path, {"sha256": {"a": "1", "b": "3"}, "values": {"d": "x"}})
    assert capsys.readouterr().out.splitlines() == [
        "reference.json: changed sha256/b",
        "reference.json: removed values/c",
        "reference.json: added values/d",
    ]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as text, tempfile.TemporaryDirectory() as numpy_:
        digests = text_stage_digests(Path(text))
        reference = numpy_stage_reference(Path(numpy_))
    for path, found in ((DIGESTS, digests), (NUMPY_REFERENCE, reference)):
        report_changes(path, found)
        path.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS} and the {len(reference['sha256'])} digests "
          f"and {len(reference['values'])} files of {NUMPY_REFERENCE}", file=sys.stderr)
