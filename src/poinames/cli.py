"""Command-line pipeline: ingest once, then run each analysis stage off files.

Every stage writes delimited-text tables plus a flat key=value manifest in
the output directory. Outputs carry no timestamps, so re-running a stage
with identical inputs reproduces every file byte for byte.

Exit codes: 0 success, 1 computation error, 2 input/usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import reprlib
import sys
import unicodedata
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable

# numpy's OpenBLAS starts one worker thread per core when numpy is imported,
# which only the cmd_* functions of the stages that use numpy do. Every BLAS
# call the CLI makes is small or memory-bound and stages run one at a time,
# so the pool only burns CPU. Run BLAS on one thread unless the user set it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .analysis import (
    DEFAULT_PERMUTATIONS,
    fit_distance_decay,
    pair_observations,
    pearson,
    spearman,
)
from .corpus import (
    LoadResult,
    PoiRecord,
    build_vocabulary,
    corpus_lines,
    load_pois,
    parse_numbers,
    partition_by_region,
    read_corpus,
    read_lines,
    read_region_mapping,
    tokenize,  # no stage calls it, but bench/traced_stage.py wraps this name
    typed_subsets,
    write_lines,
)
from .embed import EmbeddingConfig, build_training_pairs, load_model, save_model, train
from .errors import EmptyCorpusError, IngestError, PoiNamesError
from .geo import distance_matrix, region_centroid
from .localness import (
    IDF_VARIANTS,
    geo_tfidf,
    mean_pairwise_jsd,
    top_local_terms,
    usage_distributions,
    usage_percentages,
)
from .regionvec import (
    RegionMatrix,
    RegionVector,
    count_vector,
    similarity_matrix,
    tfidf_vector,
)
from .termstats import fit_zipf, rank_terms, term_frequencies

POIS_ARTIFACT = "pois.ndjson"
CORPUS_ARTIFACT = "corpus.tsv"
MODEL_ARTIFACT = "model.txt"
DISTANCES_ARTIFACT = "distances.tsv"

VECTOR_METHODS = ("count", "tfidf", "embedding")


def _fmt(x: float) -> str:
    return repr(float(x))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    # a read buffer under glibc's 128 KiB mmap threshold leaves the threshold
    # as it is; a larger one raises it, and the peak RSS of what runs after
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_manifest(path: Path) -> dict[str, str]:
    """A manifest's key=value lines; a line without "=", or a key given again, raises IngestError."""
    entries: dict[str, str] = {}
    for lineno, line in read_lines(path, artifact=True):
        key, sep, value = line.partition("=")
        if not sep or key in entries:
            fault = "has no '='" if not sep else f"gives {reprlib.repr(key)} again"
            raise IngestError(f"{path}:{lineno}: the line {fault}")
        entries[key] = value
    return entries


def _read_inputs(args: argparse.Namespace, inputs: dict[str, tuple[str, Callable | None]]
                 ) -> tuple[list, dict[str, tuple[Path, str]]]:
    """Find and parse each input in order, then check its sha256 against the manifests.

    ``inputs`` maps each artifact's name under --out to the command that
    writes it and its reader, None for a file only checked; corpus.tsv is
    among them. The manifest of that command, and for corpus.tsv every
    manifest consulted, must record the sha256: another or none raises
    IngestError naming the command to re-run. Returns the parsed values in
    order, None for a file only checked, and each input's path and sha256.
    """
    outdir = Path(args.out)

    def require(name: str, command: str) -> Path:
        path = outdir / name
        if not path.is_file():
            raise FileNotFoundError(f"missing artifact {path}: run 'poinames {command}' first")
        return path

    values = []
    for name, (command, reader) in inputs.items():
        path = require(name, command)
        values.append(None if reader is None else reader(path))
    read = {name: (outdir / name, _sha256(outdir / name)) for name in inputs}
    for command in dict.fromkeys(command for command, _ in inputs.values()):
        stage = "_".join(word for word in command.split() if not word.startswith("-"))
        manifest = require(f"manifest_{stage}.txt", command)
        recorded = _read_manifest(manifest)
        for name, (path, digest) in read.items():
            if ((inputs[name][0] == command or name == CORPUS_ARTIFACT)
                    and recorded.get(f"{name}_sha256") != digest):
                raise IngestError(f"{path} is not the file {manifest.name} records: "
                                  f"run 'poinames {command}' again")
    return values, read


def _write_stage(args: argparse.Namespace, stage: str, read: dict[str, tuple[Path, str]],
                 files: dict[str, Iterable[str] | Path | None]) -> None:
    """Write a stage's files under --out as one unit; no other code puts an artifact there.

    ``read`` holds each input's path and sha256 by its manifest name;
    ``files`` holds, by name under --out, each output's lines, the hidden
    file the stage wrote it to, or None for a file to remove. In order: a
    target that is a directory or an input raises IngestError; directories
    are made; outputs are written to hidden files; None files are removed;
    each hidden file is put in place, the manifest last. It holds each
    input's and output's sha256, then every option ("\\n" for a line break).
    """
    outdir = Path(args.out)
    manifest = f"manifest_{stage}.txt"
    temporary = {name: lines for name, lines in files.items() if isinstance(lines, Path)}
    try:
        for target in [outdir / name for name in [*files, manifest]]:
            if target.is_dir():
                raise IngestError(f"cannot write {target}: a directory has its name")
            for source, (path, _) in read.items():
                if target.exists() and target.samefile(path):
                    raise IngestError(f"cannot write {target}: the stage reads it as its {source}")
        for directory in dict.fromkeys((outdir / name).parent for name in files):
            try:
                directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:  # e.g. --out names a file
                where = "" if directory == outdir else f" {directory.name}"
                raise IngestError(f"--out {outdir}: cannot create the directory{where}: "
                                  f"{exc.strerror}") from exc
        for name, lines in files.items():
            if lines is not None and name not in temporary:
                temporary[name] = write_lines(outdir / name, lines)
        entries = ["tool=poinames", f"version={__version__}", f"stage={stage}"]
        entries.extend(f"{name}_sha256={digest}" for name, (_, digest) in read.items())
        entries.extend(f"{name}_sha256={_sha256(temporary[name])}"
                       for name in files if name in temporary)
        entries.extend(f"{key}={'' if value is None else value}".replace("\n", "\\n")
                       for key, value in vars(args).items() if key not in ("command", "func"))
        temporary[manifest] = write_lines(outdir / manifest, entries)
        for name, lines in files.items():
            if lines is None:
                (outdir / name).unlink(missing_ok=True)
        for name, tmp in temporary.items():
            os.replace(tmp, outdir / name)
    finally:
        for tmp in temporary.values():
            tmp.unlink(missing_ok=True)


def _slug(label: str) -> str:
    # \w would drop combining marks (Unicode M*), which tell labels such as
    # दिल्ली and दुल्ली apart, so the kept characters are spelled out
    kept = "".join(
        c if c.isalnum() or c in "_.-" or unicodedata.category(c)[0] == "M" else " "
        for c in label
    )
    return "_".join(kept.split()).strip("_") or "region"


def _table_lines(labels, columns, rows) -> list[str]:
    """A header of columns, then one labelled row of Python floats per label."""
    return ["region\t" + "\t".join(columns)] + [
        label + "\t" + "\t".join(map(repr, row)) for label, row in zip(labels, rows)
    ]


def _read_matrix(path: Path) -> RegionMatrix:
    """Read a square matrix written by _table_lines, rejecting any other shape."""
    import numpy as np
    lines = [line for _, line in read_lines(path, artifact=True)]
    if not lines:
        raise IngestError(f"{path}: empty matrix file")
    regions = tuple(lines[0].split("\t")[1:])
    if len(set(regions)) != len(regions):
        repeated = sorted({r for r in regions if regions.count(r) > 1})
        raise IngestError(f"{path}:1: header repeats region label(s) {reprlib.repr(repeated)}")
    rows = lines[1:]
    if len(rows) != len(regions):
        raise IngestError(
            f"{path}: header names {len(regions)} regions but the file has {len(rows)} rows"
        )
    values = np.empty((len(regions), len(regions)), dtype=np.float64)
    for i, line in enumerate(rows):
        label, *cells = line.split("\t")
        if label != regions[i]:
            raise IngestError(
                f"{path}:{i + 2}: row label {reprlib.repr(label)} differs from header label "
                f"{reprlib.repr(regions[i])}"
            )
        try:
            values[i] = parse_numbers(cells, len(regions))
        except ValueError as exc:
            raise IngestError(f"{path}:{i + 2}: {exc}") from exc
    return RegionMatrix(regions=regions, values=values)


# ---------------------------------------------------------------- commands


def cmd_ingest(args: argparse.Namespace) -> int:
    input_path = Path(args.input)
    if not input_path.is_file():
        raise FileNotFoundError(f"input file not found: {input_path}")
    read = {"input": input_path}
    mapping = None
    if args.mapping:
        mapping_path = Path(args.mapping)
        if not mapping_path.is_file():
            raise FileNotFoundError(f"mapping file not found: {mapping_path}")
        mapping = read_region_mapping(mapping_path)
        read["mapping"] = mapping_path

    result: LoadResult = load_pois(input_path, region_mapping=mapping)
    if not result.records:
        raise EmptyCorpusError("empty corpus: input contains no valid records")

    # every later stage needs tokens in every region, so a region without
    # any is refused here, before anything is written
    per_region: dict[str, int] = defaultdict(int)
    with_tokens: set[str] = set()
    empty_names = 0
    for record in result.records:
        per_region[record.region_id] += 1
        if record.tokens:
            with_tokens.add(record.region_id)
        else:
            empty_names += 1
    tokenless = sorted(per_region.keys() - with_tokens)
    if tokenless:
        raise IngestError(f"{input_path}: no name in region(s) {tokenless} has any tokens")

    # json.dumps with these options would build a new encoder for each record
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    pois_lines = (
        encode({"name": r.name, "region": r.region_id, "latitude": r.latitude,
                "longitude": r.longitude, "categories": sorted(r.categories)})
        for r in result.records
    )
    rejection_lines = ["line\treason"]
    rejection_lines.extend(f"{r.line}\t{r.reason}" for r in result.rejections)
    summary = [
        f"accepted={result.accepted}",
        f"rejected={result.rejected}",
        f"empty_token_names={empty_names}",
        f"regions={len(per_region)}",
    ]
    summary.extend(f"region.{r}={per_region[r]}" for r in sorted(per_region))
    _write_stage(args, "ingest", {name: (path, _sha256(path)) for name, path in read.items()}, {
        POIS_ARTIFACT: pois_lines,
        CORPUS_ARTIFACT: corpus_lines(result.records),
        "rejections.tsv": rejection_lines,
        "ingest_summary.txt": summary,
    })
    for line in summary:
        print(line)
    return 0


def cmd_zipf(args: argparse.Namespace) -> int:
    (records,), read = _read_inputs(args, {CORPUS_ARTIFACT: ("ingest", read_corpus)})
    corpora = partition_by_region(records, dedup=False)
    ranked = rank_terms(term_frequencies(corpora.values()))
    fit = fit_zipf(ranked)

    lines = ["rank\tterm\tfrequency"]
    lines.extend(f"{rank}\t{term}\t{count}" for rank, (term, count) in enumerate(ranked, 1))
    fit_lines = [
        f"A={_fmt(fit.intercept)}",
        f"b={_fmt(fit.slope)}",
        f"r2={_fmt(fit.r_squared)}",
        f"n_terms={len(ranked)}",
    ]
    _write_stage(args, "zipf", read, {"zipf_terms.tsv": lines, "zipf_fit.txt": fit_lines})
    for line in fit_lines:
        print(line)
    return 0


def _local_terms(args: argparse.Namespace):
    """The ingested records, the read map of _read_inputs, and each region's top --top terms."""
    (records,), read = _read_inputs(args, {CORPUS_ARTIFACT: ("ingest", read_corpus)})
    corpora = partition_by_region(records, dedup=True)
    table = geo_tfidf(corpora, variant=args.idf_variant)
    return records, read, top_local_terms(table, k=args.top)


def cmd_local_terms(args: argparse.Namespace) -> int:
    _, read, tops = _local_terms(args)

    owners: dict[str, str] = {}
    files = {}
    for region in sorted(tops):
        slug = _slug(region)
        if slug in owners:
            raise IngestError(
                f"region labels {owners[slug]!r} and {region!r} both map to "
                f"local_terms/{slug}.tsv"
            )
        owners[slug] = region
        files[f"local_terms/{slug}.tsv"] = ["rank\tterm\tweight"] + [
            f"{i}\t{t}\t{_fmt(w)}" for i, (t, w) in enumerate(tops[region], 1)
        ]
    # tables of regions an earlier ingest had and this one does not
    for stale in (Path(args.out) / "local_terms").glob("*.tsv"):
        if stale.stem not in owners and stale.is_file():
            files[f"local_terms/{stale.name}"] = None
    _write_stage(args, "local_terms", read, files)
    for slug, region in owners.items():
        print(f"{region}: {len(tops[region])} local terms -> local_terms/{slug}.tsv")
    return 0


def cmd_type_usage(args: argparse.Namespace) -> int:
    records, read, tops = _local_terms(args)
    subsets = typed_subsets(records, required_regions=sorted(tops), min_count=args.min_count)
    if not subsets:
        raise ValueError(f"no category has at least {args.min_count} POIs in every region")
    matrix = usage_percentages(subsets, tops)
    shares = matrix.shares()
    distributions = usage_distributions(matrix.regions, shares)
    mean_nats, mean_bits = mean_pairwise_jsd(distributions)
    n_regions = len(matrix.regions)

    count_lines = ["region\tcategory\twith_local_terms\ttotal"]
    for region, hits, totals in zip(matrix.regions, matrix.hits, matrix.totals):
        count_lines.extend(
            f"{region}\t{c}\t{h}\t{t}" for c, h, t in zip(matrix.categories, hits, totals)
        )

    jsd_lines = [
        f"regions={n_regions}",
        f"categories={len(matrix.categories)}",
        f"pairs={n_regions * (n_regions - 1) // 2}",
        f"mean_jsd_nats={_fmt(mean_nats)}",
        f"mean_jsd_bits={_fmt(mean_bits)}",
    ]
    _write_stage(args, "type_usage", read, {
        "usage_matrix.tsv": _table_lines(matrix.regions, matrix.categories, shares),
        "usage_counts.tsv": count_lines,
        "usage_normalized.tsv": _table_lines(matrix.regions, matrix.categories, distributions),
        "jsd_summary.txt": jsd_lines,
    })
    for line in jsd_lines:
        print(line)
    return 0


def _region_vectors(records: list[PoiRecord], method: str, variant: str) -> list[RegionVector]:
    corpora = partition_by_region(records, dedup=False)
    vocab = build_vocabulary(corpora.values())
    regions = sorted(corpora)
    if method == "count":
        return [count_vector(corpora[r], vocab) for r in regions]
    table = geo_tfidf(corpora, variant=variant)
    return [tfidf_vector(corpora[r], vocab, table) for r in regions]


def cmd_vectors(args: argparse.Namespace) -> int:
    (records,), read = _read_inputs(args, {CORPUS_ARTIFACT: ("ingest", read_corpus)})
    corpora = partition_by_region(records, dedup=False)
    vocab = build_vocabulary(corpora.values())
    regions = sorted(corpora)
    # each cell is formatted straight from a region's counts or weights, the
    # values count_vector and tfidf_vector would place, so numpy never loads
    if args.mode == "count":
        columns, absent = [corpora[r].counts for r in regions], 0
    else:
        table = geo_tfidf(corpora, variant=args.idf_variant)
        columns, absent = [table[r] for r in regions], 0.0
    lines = itertools.chain(
        ["term\t" + "\t".join(regions)],
        (term + "\t" + "\t".join([repr(c.get(term, absent)) for c in columns])
         for term in vocab.terms),
    )
    _write_stage(args, f"vectors_{args.mode}", read, {f"vectors_{args.mode}.tsv": lines})
    print(f"wrote vectors_{args.mode}.tsv ({len(vocab)} terms x {len(regions)} regions)")
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    # first, so numpy's import is timed as the stage's own and not as its first library call's
    import numpy  # noqa: F401
    (records,), read = _read_inputs(args, {CORPUS_ARTIFACT: ("ingest", read_corpus)})
    corpora = partition_by_region(records, dedup=False)
    vocab = build_vocabulary(corpora.values())
    pairs = build_training_pairs(corpora, vocab)
    config = EmbeddingConfig(
        dimension=args.dim,
        negatives=args.negatives,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        seed=args.seed,
    )
    model = train(pairs, vocab, config)

    summary = [
        f"dim={config.dimension}",
        f"negatives={config.negatives}",
        f"epochs={config.epochs}",
        f"learning_rate={_fmt(config.learning_rate)}",
        f"seed={config.seed}",
        f"pairs={len(pairs)}",
        f"final_loss={_fmt(model.epoch_losses[-1])}",
        "epoch_losses=" + ",".join(_fmt(l) for l in model.epoch_losses),
    ]
    model_path = Path(args.out) / f".{MODEL_ARTIFACT}.tmp"
    save_model(model, model_path)
    _write_stage(args, "embed", read, {MODEL_ARTIFACT: model_path, "embed_summary.txt": summary})
    for line in summary[:7]:
        print(line)
    return 0


def cmd_similarity(args: argparse.Namespace) -> int:
    # first, so numpy's import is timed as the stage's own and not as its first library call's
    import numpy  # noqa: F401
    inputs = {CORPUS_ARTIFACT: ("ingest", read_corpus)}
    if args.method == "embedding":
        inputs[MODEL_ARTIFACT] = ("embed", load_model)
    values, read = _read_inputs(args, inputs)
    records = values[0]
    by_region: dict[str, list[PoiRecord]] = defaultdict(list)
    for record in records:
        by_region[record.region_id].append(record)

    if args.method == "embedding":
        region_vectors = values[1].region_vectors
        vectors = [RegionVector(region_id=r, values=region_vectors[r])
                   for r in sorted(region_vectors)]
    else:
        vectors = _region_vectors(records, args.method, args.idf_variant)
    sim = similarity_matrix(vectors)
    centroids = {r: region_centroid(pois) for r, pois in by_region.items()}
    dist = distance_matrix(centroids)

    centroid_lines = ["region\tlatitude\tlongitude"]
    centroid_lines.extend(
        f"{r}\t{_fmt(centroids[r].latitude)}\t{_fmt(centroids[r].longitude)}"
        for r in sorted(centroids)
    )
    _write_stage(args, f"similarity_{args.method}", read, {
        f"similarity_{args.method}.tsv": _table_lines(sim.regions, sim.regions,
                                                      sim.values.tolist()),
        "centroids.tsv": centroid_lines,
        DISTANCES_ARTIFACT: _table_lines(dist.regions, dist.regions, dist.values.tolist()),
    })
    print(f"wrote similarity_{args.method}.tsv and {DISTANCES_ARTIFACT} ({len(sim.regions)} regions)")
    if args.km:
        # display-only conversion; files always carry meters
        print("distances_km\t" + "\t".join(dist.regions))
        for i, region in enumerate(dist.regions):
            cells = "\t".join(f"{v / 1000.0:.3f}" for v in dist.values[i])
            print(f"{region}\t{cells}")
    return 0


def cmd_decay(args: argparse.Namespace) -> int:
    # first, so numpy's import is timed as the stage's own and not as its first library call's
    import numpy as np
    command = f"similarity --method {args.method}"
    # every similarity run rewrites distances.tsv, so this method's run must have written it
    (sim, dist, _), read = _read_inputs(args, {
        f"similarity_{args.method}.tsv": (command, _read_matrix),
        DISTANCES_ARTIFACT: (command, _read_matrix),
        CORPUS_ARTIFACT: ("ingest", None),
    })
    pairs = pair_observations(sim, dist)

    similarities, distances = pairs.similarity.tolist(), pairs.distance_m.tolist()
    pearson_res = pearson(distances, similarities, args.permutations, args.seed)
    spearman_res = spearman(distances, similarities, args.permutations, args.seed)
    # the fit takes ln(similarity) of every pair
    non_positive = int(np.count_nonzero(pairs.similarity <= 0.0))
    if non_positive:
        fit_lines = [f"fit=undefined: {non_positive} of {len(pairs)} region pairs have a "
                     "similarity of 0 or below"]
    else:
        fit = fit_distance_decay(pairs)
        fit_lines = [f"fit_A={_fmt(fit.intercept)}", f"fit_beta={_fmt(fit.slope)}",
                     f"fit_r2={_fmt(fit.r_squared)}"]

    obs_lines = ["region_a\tregion_b\tsimilarity\tdistance_m\tln_s\tln_d"]
    # a similarity of 0 or below has no logarithm: its ln_s cell is empty
    obs_lines.extend("\t".join((a, b, repr(s), repr(d), repr(math.log(s)) if s > 0.0 else "",
                                repr(math.log(d))))
                     for (a, b), s, d in zip(pairs.names(), similarities, distances))
    result_lines = [
        f"method={args.method}",
        f"n={len(pairs)}",
        f"pearson={_fmt(pearson_res.coefficient)}",
        f"pearson_p={_fmt(pearson_res.p_value)}",
        f"spearman={_fmt(spearman_res.coefficient)}",
        f"spearman_p={_fmt(spearman_res.p_value)}",
        f"p_method={'exact' if pearson_res.exact else 'permutation'}",
        f"permutations={pearson_res.permutations}",
        f"seed={args.seed}",
        *fit_lines,
    ]
    _write_stage(args, f"decay_{args.method}", read, {
        f"decay_observations_{args.method}.tsv": obs_lines,
        f"decay_results_{args.method}.txt": result_lines,
    })
    for line in result_lines:
        print(line)
    return 0


# ---------------------------------------------------------------- parser


def _int_at_least(minimum: int):
    """An argparse type accepting integers of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {minimum}, got {text!r}"
            )
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number above 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poinames",
        description="Localness analysis of point-of-interest names.",
    )
    parser.add_argument("--version", action="version", version=f"poinames {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", required=True, help="artifact directory")

    p_ingest = sub.add_parser("ingest", help="load, validate, and normalize POI records")
    p_ingest.add_argument("--input", required=True, help="newline-delimited JSON records")
    p_ingest.add_argument("--mapping", help="city,state -> region mapping file (TSV)")
    add_out(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_zipf = sub.add_parser("zipf", help="term frequency ranking and log-log fit")
    add_out(p_zipf)
    p_zipf.set_defaults(func=cmd_zipf)

    p_local = sub.add_parser("local-terms", help="top local terms per region")
    add_out(p_local)
    p_local.add_argument("--idf-variant", choices=IDF_VARIANTS, default="pure")
    p_local.add_argument("--top", type=_positive_int, default=30, help="terms per region")
    p_local.set_defaults(func=cmd_local_terms)

    p_usage = sub.add_parser("type-usage", help="local-term usage across POI types")
    add_out(p_usage)
    p_usage.add_argument("--idf-variant", choices=IDF_VARIANTS, default="pure")
    p_usage.add_argument("--top", type=_positive_int, default=100, help="local terms per region")
    p_usage.add_argument("--min-count", type=_positive_int, default=100,
                         help="minimum POIs per category in every region")
    p_usage.set_defaults(func=cmd_type_usage)

    p_vectors = sub.add_parser("vectors", help="write per-region term vectors")
    add_out(p_vectors)
    p_vectors.add_argument("--mode", choices=("count", "tfidf"), default="count")
    p_vectors.add_argument("--idf-variant", choices=IDF_VARIANTS, default="pure")
    p_vectors.set_defaults(func=cmd_vectors)

    p_embed = sub.add_parser("embed", help="train region/word embeddings")
    add_out(p_embed)
    p_embed.add_argument("--dim", type=_positive_int, default=300)
    p_embed.add_argument("--negatives", type=_positive_int, default=5)
    p_embed.add_argument("--epochs", type=_positive_int, default=20)
    p_embed.add_argument("--learning-rate", type=_positive_float, default=0.025)
    p_embed.add_argument("--seed", type=_non_negative_int, default=0)
    p_embed.set_defaults(func=cmd_embed)

    p_sim = sub.add_parser("similarity", help="pairwise collective similarity and distances")
    add_out(p_sim)
    p_sim.add_argument("--method", choices=VECTOR_METHODS, default="count")
    p_sim.add_argument("--idf-variant", choices=IDF_VARIANTS, default="pure")
    p_sim.add_argument("--km", action="store_true",
                       help="also print the distance matrix in kilometers (files stay in meters)")
    p_sim.set_defaults(func=cmd_similarity)

    p_decay = sub.add_parser("decay", help="correlate similarity with distance and fit decay")
    add_out(p_decay)
    p_decay.add_argument("--method", choices=VECTOR_METHODS, default="count")
    p_decay.add_argument("--permutations", type=_positive_int, default=DEFAULT_PERMUTATIONS)
    p_decay.add_argument("--seed", type=_non_negative_int, default=0)
    p_decay.set_defaults(func=cmd_decay)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one stage; the only place an exception becomes an exit code and an error line.

    An error of this package or of the file system (any OSError, such as an
    artifact's name taken by a directory) exits 2; a computation error, or a
    numpy that cannot be imported, exits 1.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PoiNamesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ImportError as exc:  # numpy, which only the stages that use it import
        reason = " ".join(str(exc).split())  # numpy's own message can run over many lines
        print(f"error: cannot import numpy, which this stage needs: {reason}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
