"""The text stages give the committed bytes on the C10 fixture.

Each artifact other than a manifest, and the stdout of each stage, is
compared by sha256 with tests/data/text_stage_digests.json. The fixture is
ASCII and these stages execute no numpy, so the digests hold on every
supported Python. A change that alters one of these files on purpose
rewrites the digests by running this module, and names each changed file:

    PYTHONPATH=src python tests/test_byte_identity.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from poinames.cli import main

from conftest import write_dataset
from test_acceptance import STAGES

DIGESTS = Path(__file__).resolve().parent / "data" / "text_stage_digests.json"
TEXT_STAGES = [stage for stage in STAGES
               if stage[0] in ("zipf", "local-terms", "type-usage", "vectors")]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def text_stage_digests(tmp: Path) -> dict[str, str]:
    """The digest of every stdout and non-manifest artifact of the text stages, run in ``tmp``."""
    input_path, mapping_path = write_dataset(tmp)
    out = tmp / "artifacts"
    digests = {}
    for stage in [["ingest"]] + TEXT_STAGES:
        argv = stage + ["--out", str(out)]
        if stage == ["ingest"]:
            argv += ["--input", str(input_path), "--mapping", str(mapping_path)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0, stage
        digests["stdout of " + " ".join(stage)] = _sha256(stdout.getvalue().encode("utf-8"))
    for path in sorted(out.rglob("*")):
        if path.is_file() and not path.name.startswith("manifest_"):
            digests[path.relative_to(out).as_posix()] = _sha256(path.read_bytes())
    return digests


def test_text_stages_are_byte_identical_to_the_committed_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    found = text_stage_digests(tmp_path)
    assert sorted(found) == sorted(expected)
    assert [name for name in expected if found[name] != expected[name]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = text_stage_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
