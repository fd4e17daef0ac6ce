import hashlib
import json
import math
import os
import subprocess
import sys
import unicodedata
from pathlib import Path

import numpy as np
import pytest

import poinames
from poinames.cli import build_parser, main

from conftest import write_dataset
from test_acceptance import STAGES, _run_pipeline


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def pipeline_dir(tmp_path, dataset):
    """Artifacts directory with ingest already done."""
    input_path, mapping_path = dataset
    out = tmp_path / "artifacts"
    assert run("ingest", "--input", input_path, "--mapping", mapping_path, "--out", out) == 0
    return out


def read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def fresh_python(code, **env):
    """stdout of `code` run in a new interpreter, OPENBLAS_NUM_THREADS unset unless given.

    Importing poinames.cli here sets the variable in this process, so the
    child's environment is built without it.
    """
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = str(Path(poinames.__file__).resolve().parents[1])
    child_env.update(env)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: a fresh interpreter importing the CLI
    # must not load it
    code = ("import sys, poinames.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert fresh_python(code) == "[]"


def test_package_import_loads_no_numpy():
    assert fresh_python("import sys, poinames; print('numpy' in sys.modules)") == "False"


def test_cli_import_runs_blas_on_one_thread():
    code = ("import os, poinames.cli; print(os.environ['OPENBLAS_NUM_THREADS']); "
            "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)")
    assert fresh_python(code).split() == ["1", "1"]


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

    def test_missing_input_exits_2(self, tmp_path):
        assert run("ingest", "--input", tmp_path / "nope.ndjson", "--out", tmp_path / "o") == 2

    def test_missing_mapping_exits_2(self, tmp_path, dataset):
        input_path, _ = dataset
        code = run("ingest", "--input", input_path, "--mapping", tmp_path / "nope.tsv",
                   "--out", tmp_path / "o")
        assert code == 2

    def test_empty_input_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        assert run("ingest", "--input", empty, "--out", tmp_path / "o") == 2
        assert "empty corpus" in capsys.readouterr().err

    def test_region_label_with_tab_exits_2_before_writing(self, tmp_path, capsys):
        input_path = tmp_path / "in.ndjson"
        input_path.write_text(
            json.dumps({"name": "x", "latitude": 1.0, "longitude": 2.0, "region": "a"}) + "\n"
            + json.dumps({"name": "y", "latitude": 1.0, "longitude": 2.0, "region": "a\tb"}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert run("ingest", "--input", input_path, "--out", out) == 2
        assert "input line 2" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_region_without_tokens_exits_2_before_writing(self, tmp_path, capsys):
        # every name of region d tokenizes to nothing
        names = {r: [f"{r}{i} common cafe" for i in range(20)] for r in "abc"}
        names["d"] = ["!!!"] * 20
        out = tmp_path / "o"
        assert run("ingest", "--input", write_input(tmp_path, names), "--out", out) == 2
        assert "no name in region(s) ['d'] has any tokens" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

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
        ["\x01", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["x01", "x0b", "x0c", "x1c", "x1d", "x1e", "x85", "u2028", "u2029"],
    )
    def test_mapped_region_label_with_control_character_exits_2(self, tmp_path, capsys, char):
        input_path, mapping_path = write_dataset(tmp_path)
        label = f"desert{char}ville"
        mapping_path.write_text(f"*,DZ\t{label}\n*,LK\tlakecity\n*,HL\thillton\n",
                                encoding="utf-8")
        out = tmp_path / "o"
        assert run("ingest", "--input", input_path, "--mapping", mapping_path, "--out", out) == 2
        assert f"input line 1: region label {label!r}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("damaged", ["input", "mapping"])
    def test_non_utf8_file_exits_2_naming_it(self, tmp_path, capsys, damaged):
        input_path, mapping_path = write_dataset(tmp_path)
        path = {"input": input_path, "mapping": mapping_path}[damaged]
        path.write_bytes(path.read_bytes() + b"\xff\n")
        out = tmp_path / "o"
        assert run("ingest", "--input", input_path, "--mapping", mapping_path, "--out", out) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_pois_artifact_is_normalized(self, pipeline_dir):
        first = json.loads((pipeline_dir / "pois.ndjson").read_text().splitlines()[0])
        assert set(first) == {"name", "region", "latitude", "longitude", "categories"}


class TestStageOrdering:
    def test_zipf_before_ingest_exits_2(self, tmp_path, capsys):
        assert run("zipf", "--out", tmp_path / "fresh") == 2
        assert "poinames ingest" in capsys.readouterr().err

    def test_corrupt_pois_artifact_exits_2_naming_the_first_bad_line(self, pipeline_dir, capsys):
        path = pipeline_dir / "pois.ndjson"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2][:-1]
        lines[4] = "[]"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert run("zipf", "--out", pipeline_dir) == 2
        err = capsys.readouterr().err
        assert f"{path} is corrupt: 2 records failed to parse; first at line 3: malformed record" in err

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
        assert run("type-usage", "--out", pipeline_dir, "--min-count", "10000") == 1

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

    @pytest.mark.parametrize(
        "damage",
        [
            lambda lines: lines[:-1],
            lambda lines: lines + [lines[-1]],
            lambda lines: [lines[0], lines[2], lines[1], lines[3]],
            lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0]],
            lambda lines: lines[:-1] + [lines[-1] + "\t0.5"],
            lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\tabc"],
            lambda lines: [],
            lambda lines: lines[:-1] + [lines[-1] + "\udcff"],
            lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\tnan"],
            lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\tinf"],
            lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\t-inf"],
            lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\t1e999"],
        ],
        ids=["row-missing", "row-extra", "rows-out-of-order", "cell-missing", "cell-extra",
             "not-a-number", "empty", "not-utf8", "nan", "inf", "minus-inf", "overflow"],
    )
    def test_decay_rejects_malformed_matrix(self, pipeline_dir, capsys, damage):
        run("similarity", "--out", pipeline_dir, "--method", "count")
        path = pipeline_dir / "similarity_count.tsv"
        lines = damage(path.read_text().splitlines())
        # surrogateescape writes "\udcff" as the byte 0xff, which is not UTF-8
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8",
                        errors="surrogateescape")
        assert run("decay", "--out", pipeline_dir, "--method", "count",
                   "--permutations", "100") == 2
        assert str(path) in capsys.readouterr().err
        assert not (pipeline_dir / "decay_results_count.txt").exists()

    def test_failed_decay_leaves_earlier_outputs_unchanged(self, pipeline_dir, capsys):
        run("similarity", "--out", pipeline_dir, "--method", "count")
        assert run("decay", "--out", pipeline_dir, "--method", "count",
                   "--permutations", "100") == 0
        outputs = [pipeline_dir / "decay_observations_count.tsv",
                   pipeline_dir / "decay_results_count.txt"]
        before = [p.read_bytes() for p in outputs]
        # a negative cosine has no logarithm, so the decay fit fails
        path = pipeline_dir / "similarity_count.tsv"
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        rows[1][2] = rows[2][1] = "-0.5"
        path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
        assert run("decay", "--out", pipeline_dir, "--method", "count",
                   "--permutations", "100") == 1
        assert "error:" in capsys.readouterr().err
        assert [p.read_bytes() for p in outputs] == before

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

    def test_decay_t_approximation(self, pipeline_dir):
        run("similarity", "--out", pipeline_dir, "--method", "count")
        assert run("decay", "--out", pipeline_dir, "--method", "count", "--p-method", "t") == 0
        results = read_kv(pipeline_dir / "decay_results_count.txt")
        assert results["p_method"] == "t_approx"

    @pytest.mark.parametrize(
        "damage",
        [lambda text: text[: text.index("\nw\t") + 1], lambda text: text[: text.rindex(" ")] + "\n"],
        ids=["words-missing", "line-cut"],
    )
    def test_similarity_rejects_truncated_model(self, pipeline_dir, capsys, damage):
        assert run("embed", "--out", pipeline_dir, "--dim", "8", "--epochs", "3", "--seed", "7") == 0
        path = pipeline_dir / "model.txt"
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
        before = sorted(pipeline_dir.iterdir())
        assert run("similarity", "--out", pipeline_dir, "--method", "embedding") == 2
        assert str(path) in capsys.readouterr().err
        assert sorted(pipeline_dir.iterdir()) == before

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_similarity_rejects_non_finite_model_value(self, pipeline_dir, capsys, value):
        assert run("embed", "--out", pipeline_dir, "--dim", "8", "--epochs", "3", "--seed", "7") == 0
        path = pipeline_dir / "model.txt"
        header, first, rest = path.read_text(encoding="utf-8").split("\n", 2)
        kind, region, values = first.split("\t")
        first = "\t".join([kind, region, value + " " + values.split(" ", 1)[1]])
        path.write_text("\n".join([header, first, rest]), encoding="utf-8")
        before = sorted(pipeline_dir.iterdir())
        assert run("similarity", "--out", pipeline_dir, "--method", "embedding") == 2
        assert f"{path}:2: non-finite value" in capsys.readouterr().err
        assert sorted(pipeline_dir.iterdir()) == before

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
        before = sorted(out.iterdir())
        assert run("similarity", "--out", out, "--method", "embedding") == 2
        assert "missing from the model ['d'], not in pois.ndjson []" in capsys.readouterr().err
        assert sorted(out.iterdir()) == before

    def test_similarity_rejects_model_of_an_earlier_ingest(self, pipeline_dir, tmp_path, capsys):
        assert run("embed", "--out", pipeline_dir, "--dim", "8", "--epochs", "3", "--seed", "7") == 0
        names = {"desertville": ["desert cafe"], "newtown": ["new cafe"]}
        input_path = write_regions(tmp_path, names) / "pois.ndjson"
        assert run("ingest", "--input", input_path, "--out", pipeline_dir) == 0
        before = sorted(pipeline_dir.iterdir())
        assert run("similarity", "--out", pipeline_dir, "--method", "embedding") == 2
        err = capsys.readouterr().err
        assert "missing from the model ['newtown'], not in pois.ndjson ['hillton', 'lakecity']" in err
        assert sorted(pipeline_dir.iterdir()) == before

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


class TestDeterminism:
    def test_zipf_rerun_byte_identical(self, pipeline_dir):
        run("zipf", "--out", pipeline_dir)
        artifacts = ["zipf_terms.tsv", "zipf_fit.txt", "manifest_zipf.txt"]
        before = {a: (pipeline_dir / a).read_bytes() for a in artifacts}
        run("zipf", "--out", pipeline_dir)
        after = {a: (pipeline_dir / a).read_bytes() for a in artifacts}
        assert before == after


def test_every_manifest_hashes_what_its_stage_read_and_records_its_options(tmp_path):
    input_path, mapping_path = write_dataset(tmp_path)
    out = tmp_path / "artifacts"
    _run_pipeline(input_path, mapping_path, out)

    ingest = ["ingest", "--input", str(input_path), "--mapping", str(mapping_path)]
    for stage in [ingest] + STAGES:
        args = build_parser().parse_args(stage + ["--out", str(out)])
        if args.command == "ingest":
            read = {"input": input_path, "mapping": mapping_path}
        elif args.command == "decay":
            read = {"similarity": out / f"similarity_{args.method}.tsv",
                    "distances": out / "distances.tsv"}
        else:
            read = {"pois": out / "pois.ndjson"}
            if getattr(args, "method", None) == "embedding":
                read["model"] = out / "model.txt"
        suffix = getattr(args, "mode", None) or getattr(args, "method", None)
        name = args.command.replace("-", "_") + (f"_{suffix}" if suffix else "")
        lines = (out / f"manifest_{name}.txt").read_text(encoding="utf-8").splitlines()
        assert lines[:3] == ["tool=poinames", f"version={poinames.__version__}", f"stage={name}"]
        entries = [line.partition("=")[::2] for line in lines[3:]]
        keys = [key for key, _ in entries]
        assert len(keys) == len(set(keys)), name
        hashes = {f"{key}_sha256": hashlib.sha256(path.read_bytes()).hexdigest()
                  for key, path in read.items()}
        options = {key: "" if value is None else str(value)
                   for key, value in vars(args).items() if key not in ("command", "func")}
        assert dict(entries) == {**hashes, **options}, name


def test_every_fixture_stage_runs_under_the_bench_trace(tmp_path):
    # bench/traced_stage.py replaces library names in poinames.cli and reads
    # their arguments by name, so renaming one breaks the traced benchmark
    input_path, mapping_path = write_dataset(tmp_path)
    out = tmp_path / "artifacts"
    traced = Path(__file__).resolve().parents[1] / "bench" / "traced_stage.py"
    env = {**os.environ, "PYTHONPATH": str(Path(poinames.__file__).resolve().parents[1])}
    ingest = ["ingest", "--input", str(input_path), "--mapping", str(mapping_path)]
    for i, stage in enumerate([ingest] + STAGES):
        spans = tmp_path / f"spans_{i}.json"
        proc = subprocess.run([sys.executable, str(traced), str(spans), *stage, "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (stage, proc.stderr)
        assert len(json.loads(spans.read_text())["spans"]) > 1, stage
