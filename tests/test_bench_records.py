"""Every BENCH_*.json at the repository root is a well-formed bench record.

A record holds the last standard-output line of ``bench/run.py --workload
all --trace 0`` and of the same run with ``--trace 1``, parsed, and the
machine and versions it ran on.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
METADATA = ("commit", "python", "numpy", "cpu_model", "vcpus")
RESULT_LINES = ("end_to_end", "per_layer")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_is_strict_json_with_both_clean_result_lines(path):
    record = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    assert [key for key in METADATA if not record.get(key)] == []
    for line in RESULT_LINES:
        result = record[line]
        assert result["failed"] == 0 and result["correct"] is True, line
        assert result["attempted"] > 0 and result["metrics"], line
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)) and metric["unit"], name
