import ast
import hashlib
import itertools
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import poinames
import poinames.cli
from poinames.cli import VECTOR_METHODS, build_parser, main
from poinames.corpus import load_pois, read_corpus, tokenize, write_lines
from poinames.embed import train
from poinames.errors import IngestError

from conftest import write_dataset
from test_acceptance import STAGES, _run_pipeline

TRACED_STAGE = Path(__file__).resolve().parents[1] / "bench" / "traced_stage.py"
# the longest integer str() and int() convert (Python 3.10.7 and later); 0 means no limit
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def pipeline_dir(tmp_path, dataset):
    """Artifacts directory with ingest already done."""
    input_path, mapping_path = dataset
    out = tmp_path / "artifacts"
    assert run("ingest", "--input", input_path, "--mapping", mapping_path, "--out", out) == 0
    return out


def snapshot(out: Path) -> dict[str, bytes | None]:
    """Every path under ``out``, relative, with a file's bytes or None for a directory."""
    return {str(p.relative_to(out)): p.read_bytes() if p.is_file() else None
            for p in sorted(out.rglob("*"))}


def read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def fresh_python(code, *args, **env):
    """stdout of `code` run with `args` in a new interpreter, OPENBLAS_NUM_THREADS unset unless given.

    Importing poinames.cli here sets the variable in this process, so the
    child's environment is built without it.
    """
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = str(Path(poinames.__file__).resolve().parents[1])
    child_env.update(env)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=child_env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: a fresh interpreter importing the CLI
    # must not load it
    code = ("import sys, poinames.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert fresh_python(code) == "[]"


def test_package_import_loads_no_numpy():
    assert fresh_python("import sys, poinames; print('numpy' in sys.modules)") == "False"


def test_text_stage_modules_load_no_numpy():
    # ingest, zipf, local-terms and type-usage run on these modules alone
    code = ("import sys, poinames.corpus, poinames.termstats, poinames.linfit, "
            "poinames.localness; print('numpy' in sys.modules)")
    assert fresh_python(code) == "False"


def test_no_module_imports_numpy():
    # numpy is imported inside the functions that use it, never by a module
    modules = ", ".join(f"poinames.{m.name}" for m in pkgutil.iter_modules(poinames.__path__))
    assert "poinames.cli" in modules
    assert fresh_python(f"import sys, {modules}; print('numpy' in sys.modules)") == "False"


def test_no_module_imports_dataclasses_or_logging():
    # each costs every stage start-up time: dataclasses with what it loads
    # (inspect, ast, dis, tokenize), logging on its own. The two paths that
    # warn import logging when they do.
    modules = ", ".join(f"poinames.{m.name}" for m in pkgutil.iter_modules(poinames.__path__))
    code = (f"import sys, {modules}; "
            "print([m for m in ('dataclasses', 'logging') if m in sys.modules])")
    assert fresh_python(code) == "[]"


# runs the CLI on its arguments, then prints the exit code and how many
# numpy submodules are loaded; neither 'numpy' nor its submodules are in
# sys.modules until a stage that uses numpy imports it
NUMPY_PROBE = """
import sys
from poinames.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, sum(name.startswith("numpy.") for name in sys.modules))
"""


def test_text_stages_never_execute_numpy(tmp_path, dataset):
    input_path, mapping_path = dataset
    out = str(tmp_path / "artifacts")
    text_stages = [
        ["--version"],
        ["ingest", "--input", str(input_path), "--mapping", str(mapping_path), "--out", out],
        ["zipf", "--out", out],
        ["local-terms", "--top", "10", "--out", out],
        ["type-usage", "--top", "20", "--min-count", "5", "--out", out],
        ["vectors", "--mode", "count", "--out", out],
        ["vectors", "--mode", "tfidf", "--out", out],
    ]
    for argv in text_stages:
        assert fresh_python(NUMPY_PROBE, *argv).splitlines()[-1] == "0 0", argv
    code, submodules = fresh_python(
        NUMPY_PROBE, "embed", "--dim", "4", "--epochs", "1", "--out", out).splitlines()[-1].split()
    assert code == "0" and int(submodules) > 0


def test_cli_import_runs_blas_on_one_thread():
    # numpy starts its BLAS threads when it is imported, which importing the
    # CLI alone does not do; a stage that uses numpy imports it after the CLI
    code = ("import os, poinames.cli, numpy; "
            "print(os.environ['OPENBLAS_NUM_THREADS']); "
            "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)")
    assert fresh_python(code).split() == ["1", "1"]


def test_failed_numpy_import_is_raised_again(tmp_path, dataset):
    # a numpy whose import fails stops only the stages that use numpy, each
    # with exit 1 and one error line naming the import, and an import after
    # them raises it again
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text("raise ImportError('broken numpy')\n")
    input_path, mapping_path = dataset
    ingest = ["ingest", "--input", str(input_path), "--mapping", str(mapping_path)]
    out = ["--out", str(tmp_path / "artifacts")]
    stages = [["--version"]] + [argv + out for argv in [ingest] + STAGES]
    code = """
import contextlib, io, json, sys
from poinames.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    print("exit", json.dumps([code, err.getvalue()]))
try:
    import numpy
except ImportError as exc:
    print("raised", repr(exc))
"""
    pythonpath = os.pathsep.join([str(tmp_path), str(Path(poinames.__file__).resolve().parents[1])])
    lines = fresh_python(code, json.dumps(stages), PYTHONPATH=pythonpath).splitlines()
    error = "error: cannot import numpy, which this stage needs: broken numpy\n"
    expected = [[1, error] if argv[0] in ("embed", "similarity", "decay") else [0, ""]
                for argv in stages]
    assert [json.loads(line[5:]) for line in lines if line.startswith("exit ")] == expected
    assert lines[-1] == "raised ImportError('broken numpy')"
    assert expected.count([0, ""]) == 7


def test_cli_import_keeps_a_preset_blas_thread_count():
    code = "import os, poinames.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_python(code, OPENBLAS_NUM_THREADS="2") == "2"


class TestIngest:
    def test_summary_and_artifacts(self, pipeline_dir):
        summary = read_kv(pipeline_dir / "ingest_summary.txt")
        assert summary["regions"] == "3"
        assert summary["accepted"] == str(3 * 39)
        assert summary["rejected"] == "3"
        assert (pipeline_dir / "pois.ndjson").is_file()
        assert (pipeline_dir / "manifest_ingest.txt").is_file()
        reasons = (pipeline_dir / "rejections.tsv").read_text()
        assert "latitude out of range" in reasons
        assert "missing or empty name" in reasons
        assert "no region mapping" in reasons

    def test_out_naming_a_file_exits_2_and_leaves_it(self, tmp_path, dataset, capsys):
        input_path, mapping_path = dataset
        out = tmp_path / "taken"
        out.write_bytes(b"keep me\n")
        code = run("ingest", "--input", input_path, "--mapping", mapping_path, "--out", out)
        assert code == 2
        assert f"--out {out}" in capsys.readouterr().err
        assert out.read_bytes() == b"keep me\n"

    def test_missing_input_exits_2(self, tmp_path):
        assert run("ingest", "--input", tmp_path / "nope.ndjson", "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    def test_missing_mapping_exits_2(self, tmp_path, dataset):
        input_path, _ = dataset
        code = run("ingest", "--input", input_path, "--mapping", tmp_path / "nope.tsv",
                   "--out", tmp_path / "o")
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_empty_input_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        assert run("ingest", "--input", empty, "--out", tmp_path / "o") == 2
        assert "empty corpus" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_region_label_with_tab_exits_2_before_writing(self, tmp_path, capsys):
        input_path = tmp_path / "in.ndjson"
        input_path.write_text(
            json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a"}) + "\n"
            + json.dumps({"name": "y", "latitude": 1.0, "longitude": 2.0, "region": "a\tb"}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert run("ingest", "--input", input_path, "--out", out) == 2
        assert f"{input_path}:2" in capsys.readouterr().err
        assert not out.exists()

    def test_region_without_tokens_exits_2_before_writing(self, tmp_path, capsys):
        # every name of region d tokenizes to nothing
        names = {r: [f"{r}{i} common cafe" for i in range(20)] for r in "abc"}
        names["d"] = ["!!!"] * 20
        out = tmp_path / "o"
        assert run("ingest", "--input", write_input(tmp_path, names), "--out", out) == 2
        assert "no name in region(s) ['d'] has any tokens" in capsys.readouterr().err
        assert not out.exists()

    def test_every_region_without_tokens_is_named(self, tmp_path, capsys):
        # region c has some names without tokens, which is allowed
        names = {"a": ["alpha cafe"], "b": ["!!!", "..."], "c": ["!!!", "gamma cafe"],
                 "d": ["---"]}
        assert run("ingest", "--input", write_input(tmp_path, names), "--out", tmp_path / "o") == 2
        assert "no name in region(s) ['b', 'd'] has any tokens" in capsys.readouterr().err

    # \x01 is a plain control character; the others are line boundaries to
    # str.splitlines, so they also check that the mapping reader keeps them
    # inside the label for the label rule to reject
    @pytest.mark.parametrize(
        "char",
        ["\x01", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["x01", "x0b", "x0c", "x0d", "x1c", "x1d", "x1e", "x85", "u2028", "u2029"],
    )
    def test_mapped_region_label_with_control_character_exits_2(self, tmp_path, capsys, char):
        input_path, mapping_path = write_dataset(tmp_path)
        label = f"desert{char}ville"
        mapping_path.write_text(f"*,DZ\t{label}\n*,LK\tlakecity\n*,HL\thillton\n",
                                encoding="utf-8")
        out = tmp_path / "o"
        assert run("ingest", "--input", input_path, "--mapping", mapping_path, "--out", out) == 2
        assert f"{input_path}:1: region label {label!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("categories,name", [("Food\tBad,Bars", "Food\tBad"),
                                                 (["Food", "Bars\nEvil"], "Bars\nEvil")],
                             ids=["string", "list"])
    def test_category_with_control_character_exits_2_before_writing(self, tmp_path, capsys,
                                                                     categories, name):
        # type-usage writes each category into its tables as a cell
        input_path = write_input(tmp_path, {r: [f"{r} cafe {i}" for i in range(12)]
                                            for r in ("alpha", "beta", "gamma")})
        lines = input_path.read_text(encoding="utf-8").splitlines()
        lines[4] = json.dumps({**json.loads(lines[4]), "categories": categories})
        input_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        out = tmp_path / "o"
        assert run("ingest", "--input", input_path, "--out", out) == 2
        assert (f"{input_path}:5: category {name!r} contains a control character"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unmapped_city_with_control_character_keeps_one_rejection_row(self, tmp_path):
        input_path, mapping_path = write_dataset(tmp_path)
        with open(input_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"name": "Nowhere Cafe", "city": "Phoe\nnix", "state": "A\tZ",
                                 "latitude": 10.0, "longitude": 10.0}) + "\n")
        lineno = len(input_path.read_text(encoding="utf-8").splitlines())
        out = tmp_path / "o"
        assert run("ingest", "--input", input_path, "--mapping", mapping_path, "--out", out) == 0
        rows = [line.split("\t") for line in
                (out / "rejections.tsv").read_text(encoding="utf-8").split("\n")[:-1]]
        assert all(len(row) == 2 for row in rows)
        assert rows[-1] == [str(lineno), "no region mapping for 'Phoe\\nnix,A\\tZ'"]

    @pytest.mark.parametrize("damaged", ["input", "mapping"])
    def test_non_utf8_file_exits_2_naming_it(self, tmp_path, capsys, damaged):
        input_path, mapping_path = write_dataset(tmp_path)
        path = {"input": input_path, "mapping": mapping_path}[damaged]
        content = path.read_bytes()
        assert content.endswith(b"\n")
        path.write_bytes(content + b"\xff\n")
        out = tmp_path / "o"
        assert run("ingest", "--input", input_path, "--mapping", mapping_path, "--out", out) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        bad_line = content.count(b"\n") + 1
        assert f"line {bad_line}, byte offset 0: 0xff is not valid UTF-8" in err
        assert not out.exists()

    # numbers and nesting json.loads cannot turn into a record: an integer
    # beyond the float range, one longer than the interpreter's digit limit
    # (0 means none), and nesting past the recursion limit
    @pytest.mark.parametrize("latitude,categories,reason", [
        ("1" + "0" * 400, "[]", "missing or invalid latitude"),
        pytest.param("1" * (INT_DIGIT_LIMIT + 1), "[]", "malformed record",
                     marks=pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="no digit limit")),
        ("30.0", "[" * 200_000 + "]" * 200_000, "malformed record"),
    ], ids=["integer-beyond-float", "integer-past-digit-limit", "deep-nesting"])
    def test_number_or_nesting_json_cannot_hold_is_rejected(self, tmp_path, latitude, categories,
                                                            reason):
        input_path, mapping_path = write_dataset(tmp_path)
        record = ('{"name": "Hostile Cafe", "city": "dunecity", "state": "DZ", '
                  f'"latitude": {latitude}, "longitude": 10.0, "categories": {categories}}}')
        content = input_path.read_text(encoding="utf-8")
        input_path.write_text(content + record + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("ingest", "--input", input_path, "--mapping", mapping_path, "--out", out) == 0
        rejections = (out / "rejections.tsv").read_text(encoding="utf-8").splitlines()
        bad_line = content.count("\n") + 1
        assert rejections[-1] == f"{bad_line}\t{reason}"
        assert read_kv(out / "ingest_summary.txt")["rejected"] == "4"
        assert "Hostile Cafe" not in (out / "corpus.tsv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("field", ["name", "region", "categories"])
    def test_lone_surrogate_exits_2_before_writing(self, tmp_path, capsys, field):
        out = write_regions(tmp_path, {"a": ["alpha cafe"], "b": ["beta cafe"]})
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        records = [{"name": f"cafe {i}", "region": "a", "categories": ["Food"],
                    "latitude": 30.0, "longitude": -100.0} for i in range(3)]
        records[1][field] = ["Caf\ud800"] if field == "categories" else "x\ud800"
        input_path = tmp_path / "surrogate.ndjson"
        input_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="ascii")
        assert run("ingest", "--input", input_path, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{input_path}:2: field '{field}' holds a lone surrogate U+D800" in err
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before
        assert run("ingest", "--input", input_path, "--out", tmp_path / "new") == 2
        assert not (tmp_path / "new").exists()

    def test_pois_artifact_is_normalized(self, pipeline_dir):
        first = json.loads((pipeline_dir / "pois.ndjson").read_text().splitlines()[0])
        assert set(first) == {"name", "region", "latitude", "longitude", "categories"}

    def test_corpus_artifact_holds_the_records_of_the_pois_artifact(self, pipeline_dir):
        records = read_corpus(pipeline_dir / "corpus.tsv")
        assert len(records) == 3 * 39
        assert records == load_pois(pipeline_dir / "pois.ndjson").records
        assert all(r.tokens == tokenize(r.name) for r in records)


def set_cell(lines: list[str], lineno: int, column: int, value: str) -> None:
    """Replace one tab-separated cell of the 1-based line ``lineno``."""
    cells = lines[lineno - 1].split("\t", 5)
    cells[column] = value
    lines[lineno - 1] = "\t".join(cells)


def cut_last_line(lines: list[str], columns: int) -> None:
    """Keep the first ``columns`` cells of the last line and drop the final line end."""
    lines[-2:] = ["\t".join(lines[-2].split("\t")[:columns])]


# damage to corpus.tsv, given as its lines (the last one empty), and the
# message that names it; {last} is the number of the file's last line
CORPUS_DAMAGE = {
    "header": (lambda lines: set_cell(lines, 1, 4, "words"),
               "{path}:1: expected the header 'region\\tlatitude"),
    "truncated-last-line": (lambda lines: cut_last_line(lines, 3),
                            "{path}:{last}: expected 6 tab-separated columns, got 3"),
    "last-line-without-line-end": (lambda lines: cut_last_line(lines, 6),
                                   "{path}:{last}: the last line has no line end"),
    "extra-line-end": (lambda lines: lines.insert(3, ""),
                       "{path}:4: expected 6 tab-separated columns, got 1"),
    "latitude-not-a-number": (lambda lines: set_cell(lines, 3, 1, "north"),
                              "{path}:3: coordinates 'north', "),
    "latitude-nan": (lambda lines: set_cell(lines, 3, 1, "nan"),
                     "{path}:3: coordinates nan, "),
    "longitude-infinite": (lambda lines: set_cell(lines, 3, 2, "-inf"),
                           "{path}:3: coordinates 33.46, -inf are not finite or out of range"),
    "latitude-out-of-range": (lambda lines: set_cell(lines, 3, 1, "90.5"),
                              "{path}:3: coordinates 90.5, "),
    "empty-label": (lambda lines: set_cell(lines, 3, 0, " "), "{path}:3: empty region label"),
    "label-with-control-character": (
        lambda lines: set_cell(lines, 3, 0, "desert\x0bville"),
        "{path}:3: region label 'desert\\x0bville' contains a control character"),
    "categories-not-json": (lambda lines: set_cell(lines, 3, 3, '["Food"'),
                            "{path}:3: categories '[\"Food\"' are not a JSON list of strings"),
    "categories-not-a-list": (lambda lines: set_cell(lines, 3, 3, '"Food"'),
                              "are not a JSON list of strings"),
    "category-not-a-string": (lambda lines: set_cell(lines, 3, 3, '["Food", 3]'),
                              "are not a JSON list of strings"),
    "category-with-lone-surrogate": (
        lambda lines: set_cell(lines, 3, 3, '["Caf\\ud800"]'),
        "{path}:3: category 'Caf\\ud800' holds a lone surrogate U+D800"),
    "empty-token": (lambda lines: set_cell(lines, 3, 4, "grand  hotel"),
                    "{path}:3: tokens 'grand  hotel' are not separated by single spaces"),
    "leading-space-in-tokens": (lambda lines: set_cell(lines, 3, 4, " hotel"),
                                "are not separated by single spaces"),
    "quoted-name-not-json": (lambda lines: set_cell(lines, 3, 5, '"Grand Hotel'),
                             "{path}:3: a name starting with '\"' must be one JSON string"),
    "empty-name": (lambda lines: set_cell(lines, 3, 5, "  "), "{path}:3: empty name"),
    "invalid-utf8": (lambda lines: set_cell(lines, 3, 5, "Caf\udcff"),
                     "cannot read {path}: line 3, byte offset "),
    "raw-carriage-return": (lambda lines: set_cell(lines, 3, 5, "n0\rx"),
                            "{path}:3: the row holds a raw carriage return"),
    "category-with-control-character": (
        lambda lines: set_cell(lines, 3, 3, '["Food\\tBad"]'),
        "{path}:3: category 'Food\\tBad' contains a control character"),
    "categories-nested-past-the-recursion-limit": (
        lambda lines: set_cell(lines, 2, 3, "[" * 200_000 + "]" * 200_000),
        "{path}:2: categories '[[[["),
}


class TestStageOrdering:
    def test_zipf_before_ingest_exits_2(self, tmp_path, capsys):
        assert run("zipf", "--out", tmp_path / "fresh") == 2
        assert "poinames ingest" in capsys.readouterr().err

    def test_corrupt_pois_artifact_exits_2_naming_the_first_bad_line(self, pipeline_dir, capsys):
        # corpus.tsv is the records file every later stage reads
        path = pipeline_dir / "corpus.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace("\t", " ", 1)
        lines[4] = "[]"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        before = snapshot(pipeline_dir)
        assert run("zipf", "--out", pipeline_dir) == 2
        err = capsys.readouterr().err
        assert f"{path}:3: expected 6 tab-separated columns, got 5" in err
        assert snapshot(pipeline_dir) == before

    @pytest.mark.parametrize("stage", ["zipf", "local-terms", "type-usage", "vectors", "embed",
                                       "similarity"])
    def test_pois_artifact_with_lone_surrogate_exits_2(self, pipeline_dir, capsys, stage):
        path = pipeline_dir / "corpus.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        *cells, name = lines[1].split("\t", 5)
        lines[1] = "\t".join([*cells, json.dumps(name + "\ud800")])  # the surrogate as an escape
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        before = snapshot(pipeline_dir)
        assert run(stage, "--out", pipeline_dir) == 2
        assert f"{path}:2: name holds a lone surrogate U+D800" in capsys.readouterr().err
        assert snapshot(pipeline_dir) == before

    @pytest.mark.parametrize("stage", ["zipf", "local-terms", "type-usage", "vectors", "embed",
                                       "similarity"])
    def test_directory_without_corpus_artifact_exits_2(self, pipeline_dir, capsys, stage):
        # an --out directory ingested before corpus.tsv existed holds only pois.ndjson
        (pipeline_dir / "corpus.tsv").unlink()
        before = snapshot(pipeline_dir)
        assert run(stage, "--out", pipeline_dir) == 2
        err = capsys.readouterr().err
        assert f"missing artifact {pipeline_dir / 'corpus.tsv'}: run 'poinames ingest' first" in err
        assert snapshot(pipeline_dir) == before

    @pytest.mark.parametrize("damage,message", list(CORPUS_DAMAGE.values()), ids=list(CORPUS_DAMAGE))
    def test_damaged_corpus_artifact_exits_2_naming_the_line(self, pipeline_dir, capsys, damage,
                                                             message):
        path = pipeline_dir / "corpus.tsv"
        lines = path.read_text(encoding="utf-8").split("\n")
        last = len(lines) - 1
        damage(lines)
        # "\udcff" stands for the byte 0xff, which is not UTF-8
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
        before = snapshot(pipeline_dir)
        assert run("local-terms", "--out", pipeline_dir) == 2
        err = capsys.readouterr().err
        assert message.format(path=path, last=last) in err
        # a cell is quoted shortened, however long the damaged cell is
        assert len(err.encode("utf-8")) < 1024
        assert snapshot(pipeline_dir) == before

    def test_decay_before_similarity_exits_2(self, pipeline_dir, capsys):
        assert run("decay", "--out", pipeline_dir, "--method", "embedding") == 2
        assert "similarity" in capsys.readouterr().err


class TestIntegerOptions:
    # every integer option but --seed is a count that must be at least 1;
    # the learning rate must be a finite number above 0
    @pytest.mark.parametrize(
        "argv",
        [
            ["local-terms", "--top", "0"],
            ["type-usage", "--top", "0"],
            ["type-usage", "--min-count", "0"],
            ["embed", "--dim", "0"],
            ["embed", "--negatives", "0"],
            ["embed", "--epochs", "-1"],
            ["embed", "--learning-rate", "0"],
            ["embed", "--learning-rate", "-1"],
            ["embed", "--learning-rate", "nan"],
            ["embed", "--learning-rate", "inf"],
            ["embed", "--learning-rate", "fast"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}",
    )
    def test_integer_options_below_one_exit_2(self, pipeline_dir, capsys, argv):
        before = sorted(pipeline_dir.iterdir())
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", pipeline_dir)
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err
        assert sorted(pipeline_dir.iterdir()) == before

    @pytest.mark.parametrize("argv", [["embed", "--seed", "-1"], ["decay", "--seed", "-3"]],
                             ids=lambda argv: argv[0])
    def test_seed_below_zero_exits_2_before_writing(self, pipeline_dir, capsys, argv):
        before = {p: p.read_bytes() for p in pipeline_dir.iterdir()}
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", pipeline_dir)
        assert exc.value.code == 2
        assert f"argument --seed: expected an integer of at least 0, got '{argv[2]}'" in (
            capsys.readouterr().err
        )
        assert {p: p.read_bytes() for p in pipeline_dir.iterdir()} == before


class TestZipf:
    def test_outputs(self, pipeline_dir):
        assert run("zipf", "--out", pipeline_dir) == 0
        fit = read_kv(pipeline_dir / "zipf_fit.txt")
        assert 0.0 <= float(fit["r2"]) <= 1.0
        assert float(fit["b"]) < 0.0
        lines = (pipeline_dir / "zipf_terms.tsv").read_text().splitlines()
        assert lines[0] == "rank\tterm\tfrequency"
        assert int(fit["n_terms"]) == len(lines) - 1
        # ranks consecutive, frequencies non-increasing
        freqs = [int(l.split("\t")[2]) for l in lines[1:]]
        assert freqs == sorted(freqs, reverse=True)


class TestLocalTerms:
    def test_per_region_files(self, pipeline_dir):
        assert run("local-terms", "--out", pipeline_dir, "--top", "5") == 0
        files = sorted((pipeline_dir / "local_terms").glob("*.tsv"))
        assert [f.stem for f in files] == ["desertville", "hillton", "lakecity"]
        for f in files:
            lines = f.read_text().splitlines()
            assert lines[0] == "rank\tterm\tweight"
            weights = [float(l.split("\t")[2]) for l in lines[1:]]
            assert 1 <= len(weights) <= 5
            assert weights == sorted(weights, reverse=True)

    def test_region_flavour_terms_found(self, pipeline_dir):
        run("local-terms", "--out", pipeline_dir, "--top", "10")
        desert_terms = {
            line.split("\t")[1]
            for line in (pipeline_dir / "local_terms" / "desertville.tsv").read_text().splitlines()[1:]
        }
        assert {"desert", "cactus", "dunes"} <= desert_terms
        assert "megamart" not in desert_terms  # present in every region

    def test_tables_of_dropped_regions_are_deleted(self, tmp_path):
        out = write_regions(tmp_path, {r: [f"{r} cafe", "common cafe"]
                                       for r in ("alpha", "beta", "gamma")})
        assert run("local-terms", "--out", out) == 0
        terms_dir = out / "local_terms"
        (terms_dir / "notes.txt").write_text("kept\n")
        (terms_dir / "sub.tsv").mkdir()
        # ingest again into the same directory with fewer regions
        write_regions(tmp_path, {r: [f"{r} cafe", "common cafe"] for r in ("alpha", "delta")})
        assert run("local-terms", "--out", out) == 0
        assert sorted(f.name for f in terms_dir.iterdir()) == [
            "alpha.tsv", "delta.tsv", "notes.txt", "sub.tsv"]


def write_input(tmp_path: Path, names: dict[str, list[str]], categories=()) -> Path:
    """An ingest input holding the given POI names per region."""
    input_path = tmp_path / "regions.ndjson"
    input_path.write_text(
        "".join(
            json.dumps({"name": name, "region": region, "categories": list(categories),
                        "latitude": 30.0 + i + 0.01 * j, "longitude": -100.0 + i},
                       ensure_ascii=False) + "\n"
            for i, (region, region_names) in enumerate(sorted(names.items()))
            for j, name in enumerate(region_names)
        ),
        encoding="utf-8",
    )
    return input_path


def write_regions(tmp_path: Path, names: dict[str, list[str]], categories=()) -> Path:
    """Ingest the given POI names per region into a fresh artifact directory."""
    out = tmp_path / "regions"
    assert run("ingest", "--input", write_input(tmp_path, names, categories), "--out", out) == 0
    return out


class TestLocalTermsSlugs:
    def test_non_ascii_labels_keep_their_letters(self, tmp_path):
        # the Devanagari pair differs only in a vowel sign (Unicode Mc/Mn),
        # and decomposed Zürich carries its umlaut as a combining mark
        labels = ["東京", "大阪", "दिल्ली", "दुल्ली", unicodedata.normalize("NFD", "Zürich")]
        out = write_regions(tmp_path, {label: [f"local{i} cafe"] for i, label in enumerate(labels)})
        assert run("local-terms", "--out", out) == 0
        files = sorted(f.name for f in (out / "local_terms").iterdir())
        assert files == sorted(f"{label}.tsv" for label in labels)

    def test_colliding_slugs_exit_2_naming_both_before_writing(self, tmp_path, capsys):
        out = write_regions(tmp_path, {"a b": ["local0 cafe"], "a_b": ["local1 cafe"]})
        assert run("local-terms", "--out", out) == 2
        err = capsys.readouterr().err
        assert "'a b'" in err and "'a_b'" in err
        terms_dir = out / "local_terms"
        assert not terms_dir.exists() or not any(terms_dir.iterdir())


class TestTypeUsage:
    def test_outputs(self, pipeline_dir):
        assert run("type-usage", "--out", pipeline_dir, "--top", "20", "--min-count", "5") == 0
        summary = read_kv(pipeline_dir / "jsd_summary.txt")
        assert summary["regions"] == "3"
        assert summary["pairs"] == "3"
        mean_nats = float(summary["mean_jsd_nats"])
        assert 0.0 <= mean_nats <= math.log(2.0)
        assert float(summary["mean_jsd_bits"]) == pytest.approx(mean_nats / math.log(2.0), rel=1e-9)
        matrix_lines = (pipeline_dir / "usage_matrix.tsv").read_text().splitlines()
        assert matrix_lines[0].split("\t") == ["region", "Automotive", "Food", "Hotels"]
        for line in matrix_lines[1:]:
            for cell in line.split("\t")[1:]:
                assert 0.0 <= float(cell) <= 1.0

    def test_normalized_rows_sum_to_one(self, pipeline_dir):
        run("type-usage", "--out", pipeline_dir, "--min-count", "5")
        for line in (pipeline_dir / "usage_normalized.tsv").read_text().splitlines()[1:]:
            row = [float(c) for c in line.split("\t")[1:]]
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)

    def test_unreachable_threshold_exits_1(self, pipeline_dir):
        # in a fresh interpreter, as for a user, a logged warning would reach
        # stderr through logging's last-resort handler: only the error may
        env = {**os.environ, "PYTHONPATH": str(Path(poinames.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "poinames.cli", "type-usage", "--out", str(pipeline_dir),
             "--min-count", "10000"], env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == "error: no category has at least 10000 POIs in every region\n"

    def test_region_without_local_term_use_exits_1(self, tmp_path, capsys):
        # every token of region c occurs in every region, so c has no local term
        names = {"a": ["alpha common", "place"], "b": ["gamma common", "place"],
                 "c": ["common", "common place"]}
        out = write_regions(tmp_path, names, categories=["Food"])
        assert run("type-usage", "--out", out, "--min-count", "1") == 1
        assert "zero vector: region 'c'" in capsys.readouterr().err
        assert not (out / "usage_matrix.tsv").exists()


class TestVectors:
    def test_count_vector_table(self, pipeline_dir):
        assert run("vectors", "--out", pipeline_dir, "--mode", "count") == 0
        lines = (pipeline_dir / "vectors_count.tsv").read_text().splitlines()
        assert lines[0] == "term\tdesertville\thillton\tlakecity"
        assert all(c.isdigit() for c in lines[1].split("\t")[1:])

    def test_tfidf_vector_table(self, pipeline_dir):
        assert run("vectors", "--out", pipeline_dir, "--mode", "tfidf") == 0
        lines = (pipeline_dir / "vectors_tfidf.tsv").read_text().splitlines()
        by_term = {l.split("\t")[0]: l.split("\t")[1:] for l in lines[1:]}
        # ubiquitous chain name weighs zero everywhere under the pure variant
        assert all(float(v) == 0.0 for v in by_term["megamart"])


def damage_middle_region_row(text: str, damage) -> str:
    """`text` of a model.txt with `damage` applied to the middle one of its region rows."""
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines) if line.startswith("r\t")]
    assert len(rows) >= 3
    i = rows[len(rows) // 2]
    lines[i] = damage(lines[i])
    return "\n".join(lines)


def read_matrix(path: Path):
    lines = path.read_text().splitlines()
    regions = lines[0].split("\t")[1:]
    values = np.array([[float(c) for c in l.split("\t")[1:]] for l in lines[1:]])
    return regions, values


class TestSimilarityAndDecay:
    def test_count_similarity(self, pipeline_dir):
        assert run("similarity", "--out", pipeline_dir, "--method", "count") == 0
        regions, values = read_matrix(pipeline_dir / "similarity_count.tsv")
        assert regions == ["desertville", "hillton", "lakecity"]
        assert np.array_equal(values, values.T)
        assert np.all(np.diag(values) == 1.0)
        assert np.all((values >= 0.0) & (values <= 1.0))
        _, dist = read_matrix(pipeline_dir / "distances.tsv")
        assert np.all(np.diag(dist) == 0.0)
        assert dist[0, 1] > 1e5  # different metros are far apart

    def test_failed_similarity_leaves_the_earlier_files_in_step(self, tmp_path, capsys):
        out = write_regions(tmp_path, {r: [f"{r} cafe", "common cafe"] for r in "abc"})
        assert run("similarity", "--out", out, "--method", "count") == 0
        outputs = ["similarity_count.tsv", "centroids.tsv", "distances.tsv"]
        before = {name: (out / name).read_bytes() for name in outputs}
        # centroids (0, 0) and (0.5, 179.7) are near-antipodal, where
        # Vincenty's iteration does not converge
        coords = {"a": (0.0, 0.0), "b": (0.5, 179.7), "c": (10.0, 10.0)}
        input_path = tmp_path / "antipodal.ndjson"
        input_path.write_text("".join(
            json.dumps({"name": f"{r} cafe", "region": r, "latitude": lat, "longitude": lon}) + "\n"
            for r, (lat, lon) in coords.items()), encoding="utf-8")
        assert run("ingest", "--input", input_path, "--out", out) == 0
        assert run("similarity", "--out", out, "--method", "count") == 1
        assert "vincenty did not converge" in capsys.readouterr().err
        # so a later decay cannot pair a new similarity file with old distances
        assert {name: (out / name).read_bytes() for name in outputs} == before

    def test_decay_count(self, pipeline_dir):
        run("similarity", "--out", pipeline_dir, "--method", "count")
        assert run("decay", "--out", pipeline_dir, "--method", "count",
                   "--permutations", "2000", "--seed", "3") == 0
        results = read_kv(pipeline_dir / "decay_results_count.txt")
        assert results["n"] == "3"
        assert -1.0 <= float(results["pearson"]) <= 1.0
        assert 0.0 < float(results["pearson_p"]) <= 1.0
        assert 0.0 <= float(results["fit_r2"]) <= 1.0
        obs_lines = (pipeline_dir / "decay_observations_count.tsv").read_text().splitlines()
        assert len(obs_lines) == 4  # header + 3 pairs

    def test_km_display_is_presentation_only(self, pipeline_dir, capsys):
        run("similarity", "--out", pipeline_dir, "--method", "count")
        meters = (pipeline_dir / "distances.tsv").read_bytes()
        assert run("similarity", "--out", pipeline_dir, "--method", "count", "--km") == 0
        out = capsys.readouterr().out
        assert "distances_km" in out
        assert (pipeline_dir / "distances.tsv").read_bytes() == meters  # files stay meters

    # damage to similarity_count.tsv, given as its lines, and the message that
    # names it; {offset} is the length in bytes of the original last line
    @pytest.mark.parametrize(
        "damage,message",
        [
            pytest.param(lambda lines: lines[:-1],
                         "{path}: header names 3 regions but the file has 2 rows",
                         id="row-missing"),
            pytest.param(lambda lines: lines + [lines[-1]],
                         "{path}: header names 3 regions but the file has 4 rows",
                         id="row-extra"),
            pytest.param(lambda lines: [lines[0], lines[2], lines[1], lines[3]],
                         "{path}:2: row label 'hillton' differs from header label 'desertville'",
                         id="rows-out-of-order"),
            pytest.param(lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0]],
                         "{path}:4: expected 3 values, got 2", id="cell-missing"),
            pytest.param(lambda lines: lines[:-1] + [lines[-1] + "\t0.5"],
                         "{path}:4: expected 3 values, got 4", id="cell-extra"),
            pytest.param(lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\tabc"],
                         "{path}:4: could not convert string to float: 'abc'", id="not-a-number"),
            pytest.param(
                lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\t" + "x" * 100_000],
                "{path}:4: could not convert string to float: 'xxxxxxxxxxxx...",
                id="long-not-a-number"),
            pytest.param(lambda lines: [], "{path}: empty matrix file", id="empty"),
            pytest.param(lambda lines: lines[:-1] + [lines[-1] + "\udcff"],
                         "cannot read {path}: line 4, byte offset {offset}: 0xff is not "
                         "valid UTF-8",
                         id="not-utf8"),
            pytest.param(lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\tnan"],
                         "{path}:4: non-finite value", id="nan"),
            pytest.param(lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\tinf"],
                         "{path}:4: non-finite value", id="inf"),
            pytest.param(lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\t-inf"],
                         "{path}:4: non-finite value", id="minus-inf"),
            pytest.param(lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\t1e999"],
                         "{path}:4: non-finite value", id="overflow"),
            pytest.param(lambda lines: [line.replace("lakecity", "hillton") for line in lines],
                         "{path}:1: header repeats region label(s) ['hillton']",
                         id="label-repeated"),
            # a renamed label still parses, so the file's manifest is what refuses it
            pytest.param(lambda lines: [line.replace("lakecity", "newtown") for line in lines],
                         "{path} is not the file manifest_similarity_count.txt records: "
                         "run 'poinames similarity --method count' again", id="label-renamed"),
            pytest.param(lambda lines: [line.replace("lakecity", "z" * 100_000) for line in lines],
                         "{path} is not the file manifest_similarity_count.txt records: "
                         "run 'poinames similarity --method count' again",
                         id="label-renamed-long"),
        ],
    )
    def test_decay_rejects_malformed_matrix(self, pipeline_dir, capsys, damage, message):
        run("similarity", "--out", pipeline_dir, "--method", "count")
        path = pipeline_dir / "similarity_count.tsv"
        original = path.read_text().splitlines()
        lines = damage(original)
        # surrogateescape writes "\udcff" as the byte 0xff, which is not UTF-8
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8",
                        errors="surrogateescape")
        assert run("decay", "--out", pipeline_dir, "--method", "count",
                   "--permutations", "100") == 2
        err = capsys.readouterr().err
        assert message.format(path=path, offset=len(original[-1].encode("utf-8"))) in err
        assert len(err.encode("utf-8")) < 1024
        assert not (pipeline_dir / "decay_results_count.txt").exists()

    def test_failed_decay_leaves_earlier_outputs_unchanged(self, tmp_path, capsys):
        names = {"a": ["alpha cafe", "common"], "b": ["beta cafe", "beta zeta"],
                 "c": ["gamma zeta", "common"]}
        out = write_regions(tmp_path, names)
        assert run("similarity", "--out", out, "--method", "count") == 0
        assert run("decay", "--out", out, "--method", "count", "--permutations", "100") == 0
        outputs = [out / "decay_observations_count.tsv", out / "decay_results_count.txt",
                   out / "manifest_decay_count.txt"]
        before = [p.read_bytes() for p in outputs]
        # every region holds the same names, so every cosine is equal and the
        # correlation has zero variance
        write_regions(tmp_path, {region: ["common cafe"] for region in names})
        assert run("similarity", "--out", out, "--method", "count") == 0
        assert len(set(read_matrix(out / "similarity_count.tsv")[1][np.triu_indices(3, 1)])) == 1
        assert run("decay", "--out", out, "--method", "count", "--permutations", "100") == 1
        err = capsys.readouterr().err
        assert "error:" in err and "zero variance" in err
        assert [p.read_bytes() for p in outputs] == before

    @pytest.mark.parametrize("method", VECTOR_METHODS)
    def test_decay_on_a_similarity_of_0_or_below_exits_0_without_a_fit(self, tmp_path, method):
        if method == "embedding":
            # four regions that share no term, in two dimensions: some of
            # their cosines are below 0
            names = {r: [f"{r}{k} cafe{r}" for k in range(4)] for r in "abcd"}
            out = write_regions(tmp_path, names)
            assert run("embed", "--out", out, "--dim", "2", "--epochs", "3", "--seed", "0") == 0
        else:
            # regions a and c share no term, so their cosine is 0
            out = write_regions(tmp_path, {"a": ["alpha cafe", "common"],
                                           "b": ["beta cafe", "beta zeta"], "c": ["gamma zeta"]})
        assert run("similarity", "--out", out, "--method", method) == 0
        regions, sim = read_matrix(out / f"similarity_{method}.tsv")
        assert regions == sorted(regions)
        non_positive = (sim[np.triu_indices(len(regions), 1)] <= 0.0).tolist()
        assert 0 < sum(non_positive) < len(non_positive)
        assert run("decay", "--out", out, "--method", method, "--permutations", "100") == 0
        results = read_kv(out / f"decay_results_{method}.txt")
        assert results["fit"] == (f"undefined: {sum(non_positive)} of {len(non_positive)} "
                                  "region pairs have a similarity of 0 or below")
        assert not [key for key in results if key.startswith("fit_")]
        assert -1.0 <= float(results["pearson"]) <= 1.0
        assert 0.0 < float(results["pearson_p"]) <= 1.0
        assert 0.0 < float(results["spearman_p"]) <= 1.0
        rows = (out / f"decay_observations_{method}.tsv").read_text().splitlines()[1:]
        assert [row.split("\t")[4] == "" for row in rows] == non_positive

    @pytest.mark.parametrize("permutations", ["-5", "-1", "0"])
    def test_decay_rejects_permutations_below_one(self, pipeline_dir, capsys, permutations):
        run("similarity", "--out", pipeline_dir, "--method", "count")
        before = sorted(pipeline_dir.iterdir())
        with pytest.raises(SystemExit) as exc:
            run("decay", "--out", pipeline_dir, "--method", "count",
                "--permutations", permutations)
        assert exc.value.code == 2
        assert "--permutations" in capsys.readouterr().err
        assert sorted(pipeline_dir.iterdir()) == before

    def test_decay_t_approximation(self, pipeline_dir, capsys):
        # the t approximation is gone: --p-method is no longer an option
        run("similarity", "--out", pipeline_dir, "--method", "count")
        before = sorted(pipeline_dir.iterdir())
        with pytest.raises(SystemExit) as exc:
            run("decay", "--out", pipeline_dir, "--method", "count", "--p-method", "t")
        assert exc.value.code == 2
        assert "--p-method" in capsys.readouterr().err
        assert sorted(pipeline_dir.iterdir()) == before

    @pytest.mark.parametrize(
        "new,message",
        [
            ("hillton", "{sim}:1: header repeats region label(s) ['hillton']"),
            ("newtown", "{sim} is not the file manifest_similarity_count.txt records: "
                        "run 'poinames similarity --method count' again"),
        ],
        ids=["label-repeated", "label-renamed"],
    )
    def test_decay_names_the_region_labels_at_fault(self, pipeline_dir, capsys, new, message):
        run("similarity", "--out", pipeline_dir, "--method", "count")
        path = pipeline_dir / "similarity_count.tsv"
        path.write_text(path.read_text().replace("lakecity", new), encoding="utf-8")
        assert run("decay", "--out", pipeline_dir, "--method", "count",
                   "--permutations", "100") == 2
        assert message.format(sim=path) in capsys.readouterr().err

    # damage to a model.txt of three regions and dimension 8, given as its
    # text, and the message that names it
    @pytest.mark.parametrize(
        "damage,message",
        [
            pytest.param(lambda text: text[: text.rindex("\nr\t") + 1],
                         "{path}: header promises 3 regions, found 2", id="region-missing"),
            pytest.param(lambda text: text[: text.rindex(" ")] + "\n",
                         "{path}:4: expected 8 values, got 7", id="line-cut"),
            pytest.param(
                lambda text: damage_middle_region_row(text, lambda row: row[: row.rindex(" ")]),
                "{path}:3: expected 8 values, got 7", id="region-value-dropped"),
            pytest.param(lambda text: damage_middle_region_row(text, lambda row: "x" + row[1:]),
                         "{path}:3: unknown vector kind 'x'", id="region-kind-changed"),
            pytest.param(lambda text: text.replace("\tvariant=sgns\n", "\tvariant=glove\n", 1),
                         "malformed model header in {path}: ", id="variant-changed"),
            # the word row of a model.txt written before word vectors were dropped
            pytest.param(lambda text: text + "w" + text[text.rindex("\nr\t") + 2 :],
                         "{path}:5: unknown vector kind 'w'", id="word-row-appended"),
            pytest.param(
                lambda text: damage_middle_region_row(
                    text, lambda row: row[:2] + "\udcff" + row[2:]),
                "cannot read {path}: line 3, byte offset 2: 0xff is not valid UTF-8",
                id="not-utf8"),
            pytest.param(
                lambda text: damage_middle_region_row(
                    text, lambda row: row[: row.rindex(" ")] + " " + "x" * 100_000),
                "{path}:3: could not convert string to float: 'xxxxxxxxxxxx...",
                id="long-not-a-number"),
            # the header still promises 3 regions, and 4 rows name 3 of them
            pytest.param(lambda text: text + text.split("\n")[1] + "\n",
                         "{path}:5: region 'desertville' is given twice (first at line 2)",
                         id="region-row-repeated"),
        ],
    )
    def test_similarity_rejects_truncated_model(self, pipeline_dir, capsys, damage, message):
        assert run("embed", "--out", pipeline_dir, "--dim", "8", "--epochs", "3", "--seed", "7") == 0
        path = pipeline_dir / "model.txt"
        # surrogateescape writes "\udcff" as the byte 0xff, which is not UTF-8
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8",
                        errors="surrogateescape")
        before = sorted(pipeline_dir.iterdir())
        assert run("similarity", "--out", pipeline_dir, "--method", "embedding") == 2
        err = capsys.readouterr().err
        assert message.format(path=path) in err
        assert err.count(str(path)) == 1
        assert len(err.encode("utf-8")) < 1024
        assert sorted(pipeline_dir.iterdir()) == before

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "abc"])
    def test_similarity_rejects_non_finite_model_value(self, pipeline_dir, capsys, value):
        assert run("embed", "--out", pipeline_dir, "--dim", "8", "--epochs", "3", "--seed", "7") == 0
        path = pipeline_dir / "model.txt"
        header, first, rest = path.read_text(encoding="utf-8").split("\n", 2)
        kind, region, values = first.split("\t")
        first = "\t".join([kind, region, value + " " + values.split(" ", 1)[1]])
        path.write_text("\n".join([header, first, rest]), encoding="utf-8")
        before = sorted(pipeline_dir.iterdir())
        assert run("similarity", "--out", pipeline_dir, "--method", "embedding") == 2
        err = capsys.readouterr().err
        reason = "could not convert string to float: 'abc'" if value == "abc" else "non-finite value"
        assert f"{path}:2: {reason}" in err
        assert err.count(str(path)) == 1
        assert sorted(pipeline_dir.iterdir()) == before

    def test_similarity_rejects_a_model_whose_norms_overflow(self, pipeline_dir, capsys,
                                                             monkeypatch):
        # a finite model, but the squares of its largest values overflow, so
        # their cosines would be nan; train refuses to return such a model,
        # so this one is scaled after training
        def overflowing(*args):
            model = train(*args)
            for region in ("hillton", "lakecity"):
                model.region_vectors[region] *= 1e160
            return model

        monkeypatch.setattr(poinames.cli, "train", overflowing)
        assert run("embed", "--out", pipeline_dir, "--dim", "4", "--epochs", "1") == 0
        before = snapshot(pipeline_dir)
        capsys.readouterr()
        assert run("similarity", "--out", pipeline_dir, "--method", "embedding") == 1
        assert capsys.readouterr().err == ("error: undefined similarity: non-finite norm for "
                                           "['hillton', 'lakecity']\n")
        assert snapshot(pipeline_dir) == before

    # the stage that reads each artifact; each file's last number is cut
    # short by one digit, and its final line end is gone
    @pytest.mark.parametrize("name,stage", [
        ("model.txt", ["similarity", "--method", "embedding"]),
        ("similarity_count.tsv", ["decay", "--method", "count", "--permutations", "100"]),
        ("distances.tsv", ["decay", "--method", "count", "--permutations", "100"]),
    ], ids=["model", "similarity", "distances"])
    def test_artifact_cut_inside_its_last_number_exits_2(self, pipeline_dir, capsys, name, stage):
        assert run("embed", "--out", pipeline_dir, "--dim", "8", "--epochs", "3", "--seed", "7") == 0
        assert run("similarity", "--out", pipeline_dir, "--method", "count") == 0
        path = pipeline_dir / name
        content = path.read_bytes()
        assert content[-2:-1].isdigit() and content.endswith(b"\n")
        path.write_bytes(content[:-2])
        before = snapshot(pipeline_dir)
        assert run(*stage, "--out", pipeline_dir) == 2
        last = content.count(b"\n")
        assert (f"{path}:{last}: the last line has no line end, so the file is cut short"
                in capsys.readouterr().err)
        assert snapshot(pipeline_dir) == before

    def test_similarity_rejects_model_missing_a_region(self, tmp_path, capsys):
        names = {r: [f"{r}{i} common cafe" for i in range(20)] for r in "abcd"}
        out = write_regions(tmp_path, names)
        assert run("embed", "--out", out, "--dim", "8", "--epochs", "3", "--seed", "7") == 0
        # drop region d's vector and lower the header's region count to match
        path = out / "model.txt"
        header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert "\tregions=4\t" in header
        path.write_text(header.replace("\tregions=4\t", "\tregions=3\t")
                        + "".join(line for line in lines if not line.startswith("r\td\t")),
                        encoding="utf-8")
        before = snapshot(out)
        assert run("similarity", "--out", out, "--method", "embedding") == 2
        assert (f"{path} is not the file manifest_embed.txt records: run 'poinames embed' again"
                in capsys.readouterr().err)
        assert snapshot(out) == before

    def test_similarity_rejects_model_of_an_earlier_ingest(self, pipeline_dir, tmp_path, capsys):
        assert run("embed", "--out", pipeline_dir, "--dim", "8", "--epochs", "3", "--seed", "7") == 0
        names = {"desertville": ["desert cafe"], "newtown": ["new cafe"]}
        input_path = write_regions(tmp_path, names) / "pois.ndjson"
        assert run("ingest", "--input", input_path, "--out", pipeline_dir) == 0
        before = snapshot(pipeline_dir)
        assert run("similarity", "--out", pipeline_dir, "--method", "embedding") == 2
        err = capsys.readouterr().err
        assert (f"{pipeline_dir / 'corpus.tsv'} is not the file manifest_embed.txt records: "
                "run 'poinames embed' again") in err
        assert snapshot(pipeline_dir) == before

    def test_embedding_similarity(self, pipeline_dir):
        assert run("embed", "--out", pipeline_dir, "--dim", "8", "--epochs", "5", "--seed", "7") == 0
        assert run("similarity", "--out", pipeline_dir, "--method", "embedding") == 0
        regions, values = read_matrix(pipeline_dir / "similarity_embedding.tsv")
        assert regions == ["desertville", "hillton", "lakecity"]
        assert np.all(np.diag(values) == 1.0)
        assert np.all((values >= -1.0) & (values <= 1.0))


class TestEmbedStage:
    def test_model_round_trips(self, pipeline_dir):
        assert run("embed", "--out", pipeline_dir, "--dim", "8", "--epochs", "3", "--seed", "42") == 0
        from poinames.embed import load_model

        model = load_model(pipeline_dir / "model.txt")
        assert set(model.region_vectors) == {"desertville", "hillton", "lakecity"}
        assert model.config.dimension == 8
        summary = read_kv(pipeline_dir / "embed_summary.txt")
        assert summary["pairs"].isdigit()
        assert math.isfinite(float(summary["final_loss"]))
        assert summary["final_loss"] == summary["epoch_losses"].split(",")[-1]

    def test_same_seed_is_byte_identical(self, pipeline_dir):
        run("embed", "--out", pipeline_dir, "--dim", "8", "--epochs", "3", "--seed", "42")
        first = (pipeline_dir / "model.txt").read_bytes()
        run("embed", "--out", pipeline_dir, "--dim", "8", "--epochs", "3", "--seed", "42")
        assert (pipeline_dir / "model.txt").read_bytes() == first

    def test_diverging_training_prints_one_error_line_and_no_warning(self, pipeline_dir, capsys):
        before = snapshot(pipeline_dir)
        capsys.readouterr()
        assert run("embed", "--out", pipeline_dir, "--learning-rate", "1e200") == 1
        err = capsys.readouterr().err
        assert err == ("error: training diverged at epoch 0: non-finite loss "
                       "(try a lower learning rate)\n")
        assert snapshot(pipeline_dir) == before

    def test_training_whose_norms_overflow_prints_one_error_line_and_no_warning(
            self, pipeline_dir, capsys):
        # the loss stays finite, but the squares of the largest values overflow
        before = snapshot(pipeline_dir)
        capsys.readouterr()
        assert run("embed", "--out", pipeline_dir, "--dim", "4", "--epochs", "1",
                   "--learning-rate", "1e55") == 1
        assert capsys.readouterr().err == (
            "error: training diverged: non-finite norm for region vectors "
            "['hillton', 'lakecity'] (try a lower learning rate)\n")
        assert snapshot(pipeline_dir) == before


class TestDeterminism:
    def test_zipf_rerun_byte_identical(self, pipeline_dir):
        run("zipf", "--out", pipeline_dir)
        artifacts = ["zipf_terms.tsv", "zipf_fit.txt", "manifest_zipf.txt"]
        before = {a: (pipeline_dir / a).read_bytes() for a in artifacts}
        run("zipf", "--out", pipeline_dir)
        after = {a: (pipeline_dir / a).read_bytes() for a in artifacts}
        assert before == after


class TestWriteText:
    def test_failed_write_leaves_the_earlier_file_and_no_temporary_file(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_bytes(b"old\n")
        seen = {}

        def lines():
            yield "new"
            seen["files"] = sorted(p.name for p in tmp_path.iterdir())
            # local-terms deletes every *.tsv it did not write
            seen["tables"] = sorted(p.name for p in tmp_path.glob("*.tsv"))
            raise RuntimeError("generator failed midway")

        with pytest.raises(RuntimeError, match="generator failed midway"):
            write_lines(path, lines())
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.tsv"]
        assert seen == {"files": [".table.tsv.tmp", "table.tsv"], "tables": ["table.tsv"]}
        # a write that completes leaves the earlier file too: the caller puts
        # the hidden file it returns in place
        assert write_lines(path, ["new"]) == tmp_path / ".table.tsv.tmp"
        assert path.read_bytes() == b"old\n"
        assert (tmp_path / ".table.tsv.tmp").read_bytes() == b"new\n"

    def test_an_unwritable_file_is_named_without_its_temporary_file(self, tmp_path):
        path = tmp_path / "missing" / "table.tsv"
        with pytest.raises(IngestError) as exc:
            write_lines(path, ["new"])
        assert str(exc.value) == f"cannot write {path}: No such file or directory"


def test_every_artifact_is_put_in_place_by_a_replace(tmp_path, monkeypatch):
    # write_lines is the only writer: it writes a hidden file, then renames it
    replaced = set()
    replace = os.replace

    def recording_replace(src, dst, **kwargs):
        replaced.add(Path(dst))
        replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", recording_replace)
    input_path, mapping_path = write_dataset(tmp_path)
    out = tmp_path / "artifacts"
    _run_pipeline(input_path, mapping_path, out)
    files = {p for p in out.rglob("*") if p.is_file()}
    assert len(files) > 20 and out / "model.txt" in files
    assert sorted(str(p.relative_to(out)) for p in files - replaced) == []


def test_only_read_lines_and_write_lines_open_files():
    # one reader and one writer: no other function of the package opens a
    # file, and none but read_lines decodes one; _sha256 hashes raw bytes
    package = Path(poinames.__file__).resolve().parent
    allowed = {("corpus", "read_lines"), ("corpus", "write_lines"), ("cli", "_sha256")}
    opening = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
    found = []
    for source in sorted(package.glob("*.py")):
        for function in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    callee = node.func
                    reads = getattr(callee, "id", getattr(callee, "attr", None)) in opening
                elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                    reads = "UnicodeDecodeError" in ast.unparse(node.type)
                else:
                    continue
                if reads and (source.stem, function.name) not in allowed:
                    found.append(f"{source.name}:{node.lineno} {function.name}")
    assert found == []


def stage_name(args) -> str:
    """The name of a parsed stage's manifest, manifest_<name>.txt."""
    suffix = getattr(args, "mode", None) or getattr(args, "method", None)
    return args.command.replace("-", "_") + (f"_{suffix}" if suffix else "")


def test_every_manifest_hashes_what_its_stage_read_and_records_its_options(tmp_path):
    input_path, mapping_path = write_dataset(tmp_path)
    out = tmp_path / "artifacts"
    _run_pipeline(input_path, mapping_path, out)

    ingest = ["ingest", "--input", str(input_path), "--mapping", str(mapping_path)]
    for stage in [ingest] + STAGES:
        args = build_parser().parse_args(stage + ["--out", str(out)])
        name, method = stage_name(args), getattr(args, "method", None)
        # the files the stage read, by manifest name, then those it wrote
        if args.command == "ingest":
            read = {"input": input_path, "mapping": mapping_path}
            wrote = ["pois.ndjson", "corpus.tsv", "rejections.tsv", "ingest_summary.txt"]
        else:
            read = {"corpus.tsv": out / "corpus.tsv"}
            wrote = {
                "zipf": ["zipf_terms.tsv", "zipf_fit.txt"],
                "local-terms": [f"local_terms/{region}.tsv"
                                for region in ("desertville", "hillton", "lakecity")],
                "type-usage": ["usage_matrix.tsv", "usage_counts.tsv", "usage_normalized.tsv",
                               "jsd_summary.txt"],
                "vectors": [f"{name}.tsv"],
                "embed": ["model.txt", "embed_summary.txt"],
                "similarity": [f"{name}.tsv", "centroids.tsv", "distances.tsv"],
                "decay": [f"decay_observations_{method}.tsv", f"decay_results_{method}.txt"],
            }[args.command]
        if args.command == "decay":
            for read_name in (f"similarity_{method}.tsv", "distances.tsv"):
                read[read_name] = out / read_name
        elif method == "embedding":
            read["model.txt"] = out / "model.txt"
        lines = (out / f"manifest_{name}.txt").read_text(encoding="utf-8").splitlines()
        assert lines[:3] == ["tool=poinames", f"version={poinames.__version__}", f"stage={name}"]
        entries = [line.partition("=")[::2] for line in lines[3:]]
        keys = [key for key, _ in entries]
        assert len(keys) == len(set(keys)), name
        hashes = {f"{key}_sha256": hashlib.sha256(path.read_bytes()).hexdigest()
                  for key, path in [*read.items(), *((w, out / w) for w in wrote)]}
        options = {key: "" if value is None else str(value)
                   for key, value in vars(args).items() if key not in ("command", "func")}
        assert dict(entries) == {**hashes, **options}, name


def traced_names() -> list[str]:
    """The keys of COUNTS in bench/traced_stage.py, read by parsing the file, not running it."""
    tree = ast.parse(TRACED_STAGE.read_text(encoding="utf-8"))
    counts = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "COUNTS" for t in node.targets))
    return [ast.literal_eval(key) for key in counts.keys]


def test_every_fixture_stage_runs_under_the_bench_trace(tmp_path):
    # bench/traced_stage.py replaces library names in poinames.cli and reads
    # their arguments by name, so renaming one breaks the traced benchmark;
    # a name no stage calls any more leaves its per-layer metrics empty
    input_path, mapping_path = write_dataset(tmp_path)
    out = tmp_path / "artifacts"
    env = {**os.environ, "PYTHONPATH": str(Path(poinames.__file__).resolve().parents[1])}
    ingest = ["ingest", "--input", str(input_path), "--mapping", str(mapping_path)]
    seen = set()
    for i, stage in enumerate([ingest] + STAGES):
        spans_path = tmp_path / f"spans_{i}.json"
        proc = subprocess.run(
            [sys.executable, str(TRACED_STAGE), str(spans_path), *stage, "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (stage, proc.stderr)
        spans = json.loads(spans_path.read_text())["spans"]
        assert len(spans) > 1, stage
        seen.update(span["name"] for span in spans)
    assert [name for name in traced_names() if name not in seen] == []


def test_every_traced_name_is_a_callable_of_the_cli():
    # bench/traced_stage.py replaces each key of its COUNTS, and tokenize, in
    # the poinames.cli namespace
    names = traced_names() + ["tokenize"]
    assert len(names) > 20
    assert [n for n in names if not callable(getattr(poinames.cli, n, None))] == []


@pytest.fixture(scope="module")
def fixture_pipeline(tmp_path_factory):
    """The C10 fixture input and the artifacts of every stage, made once for the module."""
    tmp = tmp_path_factory.mktemp("pipeline")
    input_path, mapping_path = write_dataset(tmp)
    out = tmp / "artifacts"
    _run_pipeline(input_path, mapping_path, out)
    return input_path, mapping_path, out


@pytest.mark.parametrize("stage", [["ingest"]] + STAGES, ids=" ".join)
def test_a_file_name_taken_by_a_directory_exits_2_with_one_error_line(fixture_pipeline, tmp_path,
                                                                      capsys, stage):
    input_path, mapping_path, done = fixture_pipeline
    out = tmp_path / "artifacts"
    shutil.copytree(done, out)
    if stage == ["ingest"]:
        stage = ["ingest", "--input", str(input_path), "--mapping", str(mapping_path)]
    argv = stage + ["--out", str(out)]
    args = build_parser().parse_args(argv)
    if args.command == "local-terms":
        taken = out / "local_terms"
        shutil.rmtree(taken)
        taken.write_text("")
    else:
        taken = out / f"manifest_{stage_name(args)}.txt"
        taken.unlink()
        taken.mkdir()
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert sorted(str(p) for p in out.rglob(".*.tmp")) == []


def test_only_main_maps_errors_to_exit_codes():
    # every other function of the CLI lets an exception rise to main, except
    # where it adds what the message needs: _read_matrix the file and line,
    # _write_stage the --out it cannot make, and the argparse type functions
    # a usage error, which argparse reports before main's try
    tree = ast.parse(Path(poinames.cli.__file__).read_text(encoding="utf-8"))
    handlers = Counter()
    for function in tree.body:
        if isinstance(function, ast.FunctionDef):
            handlers[function.name] += sum(isinstance(node, ast.ExceptHandler)
                                           for node in ast.walk(function))
    assert +handlers == {"main": 3, "_read_matrix": 1, "_write_stage": 1,
                         "_int_at_least": 1, "_positive_float": 1}


def test_no_stage_calls_an_artifact_reader_itself():
    # _read_inputs parses each input and then checks its sha256 against the
    # manifests; a reader called anywhere else parses a file no manifest vouches for
    readers = {"read_corpus", "load_model", "_read_matrix"}
    tree = ast.parse(Path(poinames.cli.__file__).read_text(encoding="utf-8"))
    calls = [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in readers]
    assert calls == []


def test_every_library_function_and_class_is_reached_from_a_stage():
    # the tests check what the stages run, so the package holds no function
    # or class that only tests call. The walk starts from main, build_parser,
    # every cmd_* and each module's top-level statements that are not
    # definitions, and follows each Name and Attribute that names a
    # top-level function or class of the package.
    package = Path(poinames.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    definitions = {(module, node.name): node for module, tree in trees.items()
                   for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    # what a name or dotted name means in each module: its own definitions,
    # the names it imports from the package, and module.name for the modules
    # it imports
    scope = {module: {name: (module, name) for m, name in definitions if m == module}
             for module in trees}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        scope[module][local] = (node.module, alias.name)
                    else:
                        scope[module].update({f"{local}.{name}": (m, name)
                                              for m, name in definitions if m == alias.name})
    reached = {("cli", name) for module, name in definitions if module == "cli"
               and (name in ("main", "build_parser") or name.startswith("cmd_"))}
    todo = [(module, definitions[module, name]) for module, name in reached]
    todo += [(module, node) for module, tree in trees.items() for node in tree.body
             if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    while todo:
        module, root = todo.pop()
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                target = scope[module].get(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = scope[module].get(f"{node.value.id}.{node.attr}")
            else:
                continue
            if target in definitions and target not in reached:
                reached.add(target)
                todo.append((target[0], definitions[target]))
    assert sorted(f"{m}.{name}" for m, name in definitions.keys() - reached) == []


# ---------------------------------------------------------------- provenance


def moved_copy(fixture_pipeline, tmp_path: Path) -> tuple[Path, list[str]]:
    """A copy of the fixture artifacts, and the ingest argv of a second corpus.

    The second corpus has the fixture's region labels, with every name
    changed and every POI moved half a degree north.
    """
    input_path, mapping_path, done = fixture_pipeline
    out = tmp_path / "artifacts"
    shutil.copytree(done, out)
    records = [json.loads(line) for line in input_path.read_text(encoding="utf-8").splitlines()]
    for record in records:
        if "name" in record:
            record["name"] = "New " + record["name"]
        record["latitude"] += 0.5
    moved = tmp_path / "moved.ndjson"
    moved.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return out, ["ingest", "--input", str(moved), "--mapping", str(mapping_path)]


@pytest.mark.parametrize("rerun,stage,stale,manifest,command", [
    ([], ["similarity", "--method", "embedding"], "corpus.tsv", "manifest_embed.txt", "embed"),
    ([], ["decay", "--method", "embedding"], "corpus.tsv",
     "manifest_similarity_embedding.txt", "similarity --method embedding"),
    (["similarity", "--method", "count"], ["decay", "--method", "embedding"], "distances.tsv",
     "manifest_similarity_embedding.txt", "similarity --method embedding"),
], ids=["model", "similarity", "similarity-after-another-method"])
def test_an_input_built_from_an_earlier_corpus_exits_2_naming_the_stage_to_rerun(
        fixture_pipeline, tmp_path, capsys, rerun, stage, stale, manifest, command):
    out, ingest = moved_copy(fixture_pipeline, tmp_path)
    assert main(ingest + ["--out", str(out)]) == 0
    if rerun:
        assert main(rerun + ["--out", str(out)]) == 0
    before = snapshot(out)
    capsys.readouterr()
    assert main(stage + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {out / stale} is not the file {manifest} records: "
                                       f"run 'poinames {command}' again\n")
    assert snapshot(out) == before


@pytest.mark.parametrize("name,stage,manifest,command", [
    ("corpus.tsv", ["zipf"], "manifest_ingest.txt", "ingest"),
    ("model.txt", ["similarity", "--method", "embedding"], "manifest_embed.txt", "embed"),
    ("similarity_count.tsv", ["decay", "--method", "count"], "manifest_similarity_count.txt",
     "similarity --method count"),
    ("distances.tsv", ["decay", "--method", "count"], "manifest_similarity_count.txt",
     "similarity --method count"),
], ids=["corpus", "model", "similarity", "distances"])
def test_an_artifact_edited_by_hand_exits_2_naming_the_stage_to_rerun(
        fixture_pipeline, tmp_path, capsys, name, stage, manifest, command):
    _, _, done = fixture_pipeline
    out = tmp_path / "artifacts"
    shutil.copytree(done, out)
    # a 0 after the last cell still parses: a longer name, or the same number
    path = out / name
    content = path.read_bytes()
    path.write_bytes(content[:-1] + b"0\n")
    before = snapshot(out)
    capsys.readouterr()
    assert main(stage + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {path} is not the file {manifest} records: "
                                       f"run 'poinames {command}' again\n")
    assert snapshot(out) == before


@pytest.mark.parametrize("stage,second", [
    ([], "corpus.tsv"),
    (["zipf"], "zipf_fit.txt"),
    (["type-usage", "--top", "20", "--min-count", "5"], "usage_counts.tsv"),
    (["similarity", "--method", "count"], "centroids.tsv"),
    (["decay", "--method", "count", "--permutations", "100"], "decay_results_count.txt"),
    (["embed", "--dim", "4", "--epochs", "1", "--seed", "2"], "embed_summary.txt"),
    (["zipf"], ".zipf_fit.txt.tmp"),
], ids=["ingest", "zipf", "type-usage", "similarity", "decay", "embed", "zipf-temporary-file"])
def test_a_directory_in_the_way_of_a_second_file_leaves_every_file_as_it_was(
        fixture_pipeline, tmp_path, capsys, stage, second):
    out, ingest = moved_copy(fixture_pipeline, tmp_path)
    if stage:
        assert main(ingest + ["--out", str(out)]) == 0
        if stage[0] == "decay":
            assert main(["similarity", "--method", "count", "--out", str(out)]) == 0
    (out / second).unlink(missing_ok=True)
    (out / second).mkdir()
    before = snapshot(out)
    capsys.readouterr()
    assert main((stage or ingest) + ["--out", str(out)]) == 2
    # a directory named like the hidden file the artifact is first written to
    artifact = out / second.removeprefix(".").removesuffix(".tmp")
    fault = "a directory has its name" if artifact.name == second else "Is a directory"
    assert capsys.readouterr().err == f"error: cannot write {artifact}: {fault}\n"
    assert snapshot(out) == before


def test_a_directory_named_like_the_hidden_model_leaves_every_file_as_it_was(
        fixture_pipeline, tmp_path, capsys):
    out, ingest = moved_copy(fixture_pipeline, tmp_path)
    assert main(ingest + ["--out", str(out)]) == 0
    (out / ".model.txt.tmp").mkdir()
    before = snapshot(out)
    capsys.readouterr()
    assert main(["embed", "--dim", "4", "--epochs", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out / '.model.txt.tmp'}: Is a directory\n"
    assert snapshot(out) == before


def test_local_terms_refused_before_writing_leaves_no_directory(tmp_path, dataset, capsys):
    input_path, mapping_path = dataset
    out = tmp_path / "artifacts"
    assert run("ingest", "--input", input_path, "--mapping", mapping_path, "--out", out) == 0
    (out / "manifest_local_terms.txt").mkdir()
    before = snapshot(out)
    capsys.readouterr()
    assert run("local-terms", "--out", out) == 2
    assert capsys.readouterr().err == (f"error: cannot write {out / 'manifest_local_terms.txt'}: "
                                       "a directory has its name\n")
    assert snapshot(out) == before


@pytest.mark.parametrize("option,name", [("--input", "pois.ndjson"), ("--mapping", "rejections.tsv")])
def test_ingest_refuses_to_write_over_a_file_it_reads(tmp_path, dataset, capsys, option, name):
    paths = dict(zip(["--input", "--mapping"], map(str, dataset)))
    out = tmp_path / "artifacts"
    out.mkdir()
    target = out / name
    shutil.copy(paths[option], target)
    paths[option] = str(target)
    before = snapshot(out)
    assert run("ingest", *itertools.chain(*paths.items()), "--out", out) == 2
    assert capsys.readouterr().err == (f"error: cannot write {target}: the stage reads it as its "
                                       f"{option[2:]}\n")
    assert snapshot(out) == before


@pytest.mark.parametrize("damage,message", [
    (lambda text: text[:-1], "{path}:{last}: the last line has no line end, so the file is cut short"),
    (lambda text: text.replace("stage=", "stage=\udcff", 1),
     "cannot read {path}: line 3, byte offset 6: 0xff is not valid UTF-8"),
    (lambda text: text.replace("stage=", "stage ", 1), "{path}:3: the line has no '='"),
    (lambda text: text + "tool=poinames\n", "{path}:{next}: the line gives 'tool' again"),
], ids=["cut-short", "not-utf8", "no-equals", "key-twice"])
def test_a_damaged_manifest_exits_2_naming_its_line(pipeline_dir, capsys, damage, message):
    path = pipeline_dir / "manifest_ingest.txt"
    text = path.read_text(encoding="utf-8")
    # surrogateescape writes "\udcff" as the byte 0xff, which is not UTF-8
    path.write_bytes(damage(text).encode("utf-8", "surrogateescape"))
    before = snapshot(pipeline_dir)
    assert run("zipf", "--out", pipeline_dir) == 2
    last = text.count("\n")
    assert capsys.readouterr().err == (
        "error: " + message.format(path=path, last=last, next=last + 1) + "\n")
    assert snapshot(pipeline_dir) == before


def test_an_option_holding_a_line_break_stays_on_its_manifest_line(tmp_path, dataset, capsys):
    input_path, mapping_path = dataset
    out = tmp_path / "two\nlines"
    assert run("ingest", "--input", input_path, "--mapping", mapping_path, "--out", out) == 0
    lines = (out / "manifest_ingest.txt").read_text(encoding="utf-8").splitlines()
    assert lines[-1] == f"out={tmp_path}/two\\nlines"
    # the next stage reads that manifest
    assert run("zipf", "--out", out) == 0
