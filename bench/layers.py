"""Per-layer metrics of a traced pass, plus import times from -X importtime.

Times are summed span durations over every stage of the pass. Counts
marked "computed" in README.md are derived from argument sizes (pairs of
regions, permutations, training steps), not counted inside the program.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

IMPORT_REPEATS = 3
MIB = 1024.0 * 1024.0


def import_times(env: dict[str, str]) -> dict[str, float]:
    """Cumulative import seconds of poinames, scipy and numpy, median of fresh interpreters."""
    samples = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import poinames.cli"],
                              env=env, capture_output=True, text=True, check=True)
        for key, value in _top_level_cumulative(proc.stderr).items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def _top_level_cumulative(report: str) -> dict[str, float]:
    """Sum the cumulative time of each package's outermost imports.

    importtime prints a module after the modules it imported, indented two
    spaces per level, so reading the report backwards gives every entry's
    parent before the entry itself.
    """
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        name = name[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    totals = {"poinames": 0.0, "scipy": 0.0, "numpy": 0.0}
    parents: list[str] = []
    for depth, name, cumulative in reversed(entries):
        del parents[depth:]
        package = name.split(".")[0]
        parent = parents[-1].split(".")[0] if parents else None
        if package in totals and parent != package:
            totals[package] += cumulative
        parents.append(name)
    return totals


def per_layer(spans_dir: Path, traced, untraced_pipeline_s: float,
              env: dict[str, str], out: Path) -> dict[str, tuple[float, str]]:
    spans = []
    for path in sorted(spans_dir.glob("*.json")):
        # span ids restart in every stage file; key children by (file, id)
        for span in json.loads(path.read_text(encoding="utf-8"))["spans"]:
            span["file"] = path.name
            spans.append(span)

    dur = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    child_s = defaultdict(float)
    for s in spans:
        d = s["end"] - s["start"]
        dur[s["name"]] += d
        calls[s["name"]] += 1
        for key, value in s["counts"].items():
            counts[s["name"]][key] += value
        if s["parent"] is not None:
            child_s[(s["file"], s["parent"])] += d
    self_s = defaultdict(float)
    tokenized_singly = 0
    for s in spans:
        tokenized_singly += s["agg_calls"]
        own = s["end"] - s["start"] - child_s[(s["file"], s["id"])] - s["agg_s"]
        self_s[s["name"]] += own

    # dedup ratio only over the dedup=True partitions
    dedup_in = dedup_kept = 0
    max_perm_cells = 0
    for s in spans:
        c = s["counts"]
        if s["name"] == "partition_by_region" and c["dedup"]:
            dedup_in += c["names"]
            dedup_kept += c["kept"]
        if s["name"] in ("pearson", "spearman"):
            max_perm_cells = max(max_perm_cells, c["permutations"] * c["pairs"])
    vocab_terms = max((s["counts"]["terms"] for s in spans if s["name"] == "build_vocabulary"),
                      default=0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else float("nan")

    c = counts
    permuted = sum(s["counts"]["permutations"] * s["counts"]["pairs"]
                   for s in spans if s["name"] in ("pearson", "spearman"))
    imports = import_times(env)
    m: dict[str, tuple[float, str]] = {
        "import.poinames_cli_s": (imports["poinames"], "s"),
        "import.scipy_s": (imports["scipy"], "s"),
        "import.numpy_s": (imports["numpy"], "s"),
        "corpus.load_pois_s": (dur["load_pois"], "s"),
        "corpus.load_pois_calls": (calls["load_pois"], "count"),
        "corpus.records_in": (c["load_pois"]["records"], "count"),
        "corpus.accept_ratio": (ratio(c["load_pois"]["accepted"], c["load_pois"]["records"]), "ratio"),
        "corpus.partition_by_region_s": (dur["partition_by_region"], "s"),
        "corpus.partition_calls": (calls["partition_by_region"], "count"),
        "corpus.names_tokenized": (c["partition_by_region"]["names"] + c["typed_subsets"]["names"]
                                   + tokenized_singly, "count"),
        "corpus.dedup_kept_ratio": (ratio(dedup_kept, dedup_in), "ratio"),
        "corpus.typed_subsets_s": (dur["typed_subsets"], "s"),
        "corpus.build_vocabulary_s": (dur["build_vocabulary"], "s"),
        "corpus.vocab_terms": (vocab_terms, "count"),
        "termstats.s": (dur["term_frequencies"] + dur["rank_terms"] + dur["fit_zipf"], "s"),
        "termstats.terms": (c["rank_terms"]["terms"], "count"),
        "localness.geo_tfidf_s": (dur["geo_tfidf"], "s"),
        "localness.geo_tfidf_calls": (calls["geo_tfidf"], "count"),
        "localness.top_local_terms_s": (dur["top_local_terms"], "s"),
        "localness.usage_percentages_s": (dur["usage_percentages"], "s"),
        "localness.jsd_s": (dur["mean_pairwise_jsd"], "s"),
        "localness.jsd_pairs": (c["mean_pairwise_jsd"]["pairs"], "count"),
        "regionvec.vector_build_s": (dur["count_vector"] + dur["tfidf_vector"], "s"),
        "regionvec.vector_cells": (c["count_vector"]["cells"] + c["tfidf_vector"]["cells"], "count"),
        "regionvec.similarity_matrix_s": (dur["similarity_matrix"], "s"),
        "regionvec.cosine_pairs": (c["similarity_matrix"]["pairs"], "count"),
        "embed.build_training_pairs_s": (dur["build_training_pairs"], "s"),
        "embed.train_s": (dur["train"], "s"),
        "embed.pair_steps": (c["train"]["pair_steps"], "count"),
        "embed.us_per_pair": (ratio(dur["train"] * 1e6, c["train"]["pair_steps"]), "us"),
        "embed.gflop_computed": (c["train"]["flop"] / 1e9, "GFLOP"),
        "embed.save_model_s": (dur["save_model"], "s"),
        "embed.load_model_s": (dur["load_model"], "s"),
        "embed.model_mb": (c["save_model"]["bytes"] / MIB, "MiB"),
        "geo.region_centroid_s": (dur["region_centroid"], "s"),
        "geo.distance_matrix_s": (dur["distance_matrix"], "s"),
        "geo.vincenty_calls": (c["distance_matrix"]["pairs"], "count"),
        "geo.us_per_vincenty": (ratio(dur["distance_matrix"] * 1e6, c["distance_matrix"]["pairs"]), "us"),
        "analysis.pearson_s": (dur["pearson"], "s"),
        "analysis.spearman_s": (dur["spearman"], "s"),
        "analysis.permutations": (c["pearson"]["permutations"] + c["spearman"]["permutations"], "count"),
        "analysis.permutation_mb_computed": (max_perm_cells * 8 / MIB, "MiB"),
        "analysis.ns_per_permuted_pair": (ratio((dur["pearson"] + dur["spearman"]) * 1e9, permuted), "ns"),
        "analysis.fit_s": (dur["fit_distance_decay"], "s"),
    }
    for stage in ("ingest", "zipf", "local-terms", "type-usage", "vectors", "embed",
                  "similarity", "decay"):
        m[f"cli.{stage.replace('-', '_')}.self_s"] = (self_s["cli." + stage], "s")
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    m["cli.artifact_mb_written"] = (written / MIB, "MiB")
    m["trace.overhead_s"] = (traced.wall_s - untraced_pipeline_s, "s")
    return m
