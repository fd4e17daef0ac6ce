"""Run one poinames CLI invocation with spans around its library calls.

    python3 bench/traced_stage.py SPANS.json <poinames arguments...>

Wraps the public library functions that ``poinames.cli`` imports, by
replacing those names in the ``poinames.cli`` namespace, then calls
``poinames.cli.main(argv)``. Each wrapped call becomes a span (id, name,
start, end, parent) with the counts readable from its arguments and
return value. ``tokenize`` runs once per name, so its calls are summed
into the calling span (``agg_s``, ``agg_calls``) instead. The spans are
kept in memory and written to SPANS.json once, when the stage ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _correlation(a, result):
    permutations = a.get("permutations", 0) if a.get("p_method", "permutation") == "permutation" else 0
    return {"permutations": permutations, "pairs": len(a["x"])}


def _train(a, result):
    config = a["config"]
    steps = len(a["pairs"]) * config.epochs
    d, k = config.dimension, config.negatives
    # per step: 2 dot products over d for the positive, 2dk for the negatives,
    # the region gradient (2d + 2dk), the word update (2d), k negative updates
    # (2dk) and the region update (2d)
    return {"pair_steps": steps, "flop": steps * d * (8 + 6 * k)}


# name -> counts(bound arguments, return value)
COUNTS = {
    "load_pois": lambda a, r: {"records": r.accepted + r.rejected, "accepted": r.accepted},
    "partition_by_region": lambda a, r: {
        "names": len(a["records"]),
        "kept": sum(len(c.documents) for c in r.values()),
        "dedup": int(bool(a["dedup"])),
    },
    "typed_subsets": lambda a, r: {"names": len(a["records"]), "subsets": len(r)},
    "build_vocabulary": lambda a, r: {"terms": len(r)},
    "term_frequencies": lambda a, r: {},
    "rank_terms": lambda a, r: {"terms": len(r)},
    "fit_zipf": lambda a, r: {},
    "geo_tfidf": lambda a, r: {},
    "top_local_terms": lambda a, r: {},
    "usage_percentages": lambda a, r: {},
    "mean_pairwise_jsd": lambda a, r: {"pairs": _pairs(len(a["distributions"]))},
    "count_vector": lambda a, r: {"cells": int(r.values.size)},
    "tfidf_vector": lambda a, r: {"cells": int(r.values.size)},
    "similarity_matrix": lambda a, r: {"pairs": _pairs(len(a["vectors"]))},
    "build_training_pairs": lambda a, r: {"pairs": len(r)},
    "train": _train,
    "save_model": lambda a, r: {"bytes": Path(a["path"]).stat().st_size},
    "load_model": lambda a, r: {"bytes": Path(a["path"]).stat().st_size},
    "region_centroid": lambda a, r: {},
    "distance_matrix": lambda a, r: {"pairs": _pairs(len(a["centroids"]))},
    "pair_observations": lambda a, r: {"pairs": len(r)},
    "pearson": _correlation,
    "spearman": _correlation,
    "fit_distance_decay": lambda a, r: {},
}


class Tracer:
    def __init__(self, root_name: str) -> None:
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.root = self.open(root_name)

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "start": time.perf_counter(), "end": None,
                "agg_s": 0.0, "agg_calls": 0, "counts": {}}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, counts):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span["counts"] = counts(bound.arguments, result)
            return result

        return traced

    def wrap_summed(self, fn):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                parent = self.stack[-1]
                parent["agg_s"] += time.perf_counter() - t0
                parent["agg_calls"] += 1

        return traced


def main() -> int:
    spans_path = Path(sys.argv[1])
    argv = sys.argv[2:]
    t_import = time.perf_counter()
    import poinames.cli as cli

    import_s = time.perf_counter() - t_import
    tracer = Tracer("cli." + (argv[0] if argv else ""))
    for name, counts in COUNTS.items():
        setattr(cli, name, tracer.wrap(name, getattr(cli, name), counts))
    cli.tokenize = tracer.wrap_summed(cli.tokenize)
    try:
        code = cli.main(argv)
    finally:
        tracer.close(tracer.root)
        spans_path.write_text(
            json.dumps({"argv": argv, "import_s": import_s, "spans": tracer.spans}),
            encoding="utf-8",
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
