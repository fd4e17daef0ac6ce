"""The stages give the committed bytes, or the committed values, on the C10 fixture.

Text stages (ingest, zipf, local-terms, type-usage, vectors): each artifact
other than a manifest, and the stdout of each stage, is compared by sha256
with tests/data/text_stage_digests.json. The fixture is ASCII and these
stages execute no numpy, so the digests hold on every supported Python.

Numpy stages (similarity and decay, --method count and tfidf), compared
with tests/data/numpy_stage_reference.json:

- centroids.tsv, distances.tsv and the stdout of similarity hold no value
  that numpy computes (centroids and Vincenty distances use only Python's
  math), so they are pinned by sha256.
- similarity_<method>.tsv, decay_observations_<method>.tsv,
  decay_results_<method>.txt and the stdout of decay must have the
  committed labels, keys and row order exactly. Numbers agree to a
  relative tolerance of REL_TOL (ABS_TOL near 0), because numpy's
  reductions and BLAS kernels may round differently on another numpy
  version or CPU.
- The p-values are draws of numpy's permutation stream, so they are only
  checked to lie in (0, 1].

Embedding is left out: its values depend on training numerics.

A change that alters one of these files on purpose rewrites both reference
files by running this module, and names each changed file:

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
from pathlib import Path

from poinames.cli import main

from conftest import write_dataset
from test_acceptance import STAGES

DATA = Path(__file__).resolve().parent / "data"
DIGESTS = DATA / "text_stage_digests.json"
NUMPY_REFERENCE = DATA / "numpy_stage_reference.json"
TEXT_STAGES = [stage for stage in STAGES
               if stage[0] in ("zipf", "local-terms", "type-usage", "vectors")]
NUMPY_STAGES = [stage for stage in STAGES
                if stage[0] in ("similarity", "decay") and stage[2] != "embedding"]
PINNED = ("centroids.tsv", "distances.tsv", "stdout of similarity")
REL_TOL = 1e-9
ABS_TOL = 1e-12
# cells and values compared as text: labels, counts and names
EXACT_FIELDS = {"header", "region", "region_a", "region_b", "method", "n", "p_method",
                "permutations", "seed"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_fixture(tmp: Path, stages: list[list[str]]) -> dict[str, bytes]:
    """Run ingest, then ``stages``, on the C10 fixture in ``tmp``.

    Returns each stage's stdout, as "stdout of <argv>", and each artifact
    other than a manifest, by its name under --out.
    """
    input_path, mapping_path = write_dataset(tmp)
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


def text_stage_digests(tmp: Path) -> dict[str, str]:
    """The digest of every stdout and non-manifest artifact of the text stages, run in ``tmp``."""
    return {name: _sha256(data) for name, data in run_fixture(tmp, TEXT_STAGES).items()}


def numpy_stage_reference(tmp: Path) -> dict[str, dict[str, str]]:
    """The sha256 of each PINNED output of the numpy stages, and the text of each other one."""
    outputs = run_fixture(tmp, NUMPY_STAGES)
    return {
        "sha256": {name: _sha256(data) for name, data in outputs.items()
                   if name.startswith(PINNED)},
        "values": {name: data.decode("utf-8") for name, data in outputs.items()
                   if name.startswith(("similarity_", "decay_", "stdout of decay"))},
    }


def fields(text: str) -> list[tuple[str, str]]:
    """(field, value) for each value of a table or key=value file, in file order.

    A table cell's field is its column's header, and the header line is one
    value of field "header".
    """
    lines = text.splitlines()
    if "\t" not in lines[0]:
        return [tuple(line.split("=", 1)) for line in lines]
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as text, tempfile.TemporaryDirectory() as numpy_:
        digests = text_stage_digests(Path(text))
        reference = numpy_stage_reference(Path(numpy_))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    NUMPY_REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS} and the {len(reference['sha256'])} digests "
          f"and {len(reference['values'])} files of {NUMPY_REFERENCE}", file=sys.stderr)
