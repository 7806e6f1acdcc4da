"""Correctness checks of workload artifacts against independent references.

Nothing here imports entangletext. The references are:

- tests/oracles.py: the reference normalizer (its own Porter stemmer),
  rankings, tiling, indicator counting, histograms and the exhaustive
  576-ordering CHSH oracles;
- tests/data/planted_expected.json: the frozen result of the independent
  pipeline in scripts/freeze_planted_expected.py on the bundled corpus;
- `subset_scan` below: a vectorised scan of every 4-term subset pair over
  all 24 x 24 row/column orderings; every pair whose float maximum lies
  within 1e-9 of the bound 2 is re-decided exactly by the oracles.

Each check returns a list of problems; an empty list means the artifacts
are correct. The caller puts tests/ on sys.path so `oracles` imports.
"""

from __future__ import annotations

import bisect
import csv
import filecmp
import json
import math
import random
import re
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

import oracles

BOUNDARY_EPS = 1e-9
S_TOL = 1e-12
ORDERINGS = tuple(permutations(range(4)))
CHUNK_BYTES = 4 << 20  # size of one chunk of S values in subset_scan
TOP_VIOLATIONS = 10  # violations analyze reports per cell by default

# ----------------------------------------------------------------------
# reference analysis pipeline (tests/oracles.py)
# ----------------------------------------------------------------------


def reference_documents(manifest: Path, stoplist) -> dict:
    """topic_id -> list of reference-normalized term lists, manifest order.

    Same result as oracles.normalize_reference per document; the reference
    stemmer is memoized over distinct tokens so large corpora stay cheap.
    """
    data = json.loads(manifest.read_text(encoding="utf-8"))
    stems: dict[str, str] = {}
    topics = {}
    for topic in data["topics"]:
        docs = []
        for doc in topic["documents"]:
            text = (manifest.parent / doc["path"]).read_text(encoding="utf-8")
            terms = []
            for token in re.findall(r"[A-Za-z]+", text):
                token = token.lower()
                if token in stoplist:
                    continue
                stem = stems.get(token)
                if stem is None:
                    stem = stems[token] = oracles.porter_reference(token)
                terms.append(stem)
            docs.append(terms)
        topics[topic["topic_id"]] = docs
    return topics


def reference_analysis(manifest: Path, stoplist, window_sizes, methods, k: int) -> dict:
    """(topic, method) -> ranking, concepts and per-W counts from the oracles."""
    topics = reference_documents(manifest, stoplist)
    collection = [terms for docs in topics.values() for terms in docs]
    out = {}
    for topic_id, docs in topics.items():
        for method in methods:
            ranking = (
                oracles.frequency_ranking_reference(docs)
                if method == "frequency"
                else oracles.tfidf_ranking_reference(docs, collection)
            )
            c1 = [t for t, _ in ranking[:k]]
            c2 = [t for t, _ in ranking[k : 2 * k]]
            cells = {}
            for width in window_sizes:
                counts, n_windows = oracles.cooccurrence_reference(docs, width, c1, c2)
                cells[width] = {"matrix": counts, "n_windows": n_windows,
                                "histogram": oracles.histogram_reference(counts)}
            out[(topic_id, method)] = {"ranking": ranking, "c1": c1, "c2": c2, "cells": cells}
    return out


# ----------------------------------------------------------------------
# independent subset scan: 576 orderings per subset pair, exact audit
# ----------------------------------------------------------------------


def _pair_index(n: int) -> dict:
    return {pair: i for i, pair in enumerate((a, b) for a in range(n) for b in range(n) if a != b)}


def _ordering_pairs(n: int, index: dict) -> np.ndarray:
    """(n_subsets, 24, 2): ordered-pair indices (a1, a2) and (a1', a2')."""
    return np.array([
        [(index[(sub[o[0]], sub[o[1]])], index[(sub[o[2]], sub[o[3]])]) for o in ORDERINGS]
        for sub in combinations(range(n), 4)
    ])


def float_max_abs(counts) -> np.ndarray:
    """Float max |S| over all 576 orderings of every 4-term subset pair.

    counts is one matrix (n_rows, n_cols) or a stack of them
    (n, n_rows, n_cols); the result has shape (n_row_subsets,
    n_col_subsets) per matrix, 0 where every ordering has an empty block.
    """
    counts = np.asarray(counts, dtype=np.float64)
    *stack, n_rows, n_cols = counts.shape
    rows = _ordering_pairs(n_rows, _pair_index(n_rows))
    cols = _ordering_pairs(n_cols, _pair_index(n_cols))
    row_pairs = np.array(list(_pair_index(n_rows)))
    col_pairs = np.array(list(_pair_index(n_cols)))
    r1, r2 = row_pairs[:, 0][:, None], row_pairs[:, 1][:, None]
    c1, c2 = col_pairs[:, 0][None, :], col_pairs[:, 1][None, :]
    f11, f12 = counts[..., r1, c1], counts[..., r1, c2]
    f21, f22 = counts[..., r2, c1], counts[..., r2, c2]
    den = f11 + f12 + f21 + f22
    with np.errstate(invalid="ignore", divide="ignore"):
        table = np.where(den > 0, (f11 + f22 - f12 - f21) / den, np.nan)

    # S = E(u,w) + E(v,w) + E(u,x) - E(v,x) = (E(u,.)+E(v,.))[w] + (E(u,.)-E(v,.))[x].
    # The 24 row orderings include (a2, a1, a2', a1') for each (a1, a2, a1', a2'),
    # which negates S, so the maximum of S over all 576 orderings is max |S|.
    w, x = cols[:, :, 0], cols[:, :, 1]
    n_rs, n_cs = len(rows), len(cols)
    step = max(1, CHUNK_BYTES // (math.prod(stack) * 24 * n_cs * 24 * 8))
    max_abs = np.empty((*stack, n_rs, n_cs))
    for start in range(0, n_rs, step):
        u = table[..., rows[start : start + step, :, 0], :]
        v = table[..., rows[start : start + step, :, 1], :]
        s = (u + v)[..., w]  # (stack, rows in chunk, 24, n_cs, 24)
        s += (u - v)[..., x]
        max_abs[..., start : start + step, :] = np.fmax.reduce(
            np.fmax.reduce(s, axis=-1), axis=-2)
    return np.nan_to_num(max_abs, nan=0.0)


def subset_scan(matrix):
    """Max |S| per (row subset, column subset) over all 576 orderings.

    Returns (max_abs, violated, n_audits): max_abs is the float maximum
    (0 where every ordering has an empty block), violated the exact
    decision "|S| > 2", n_audits the number of pairs decided exactly.
    """
    max_abs = float_max_abs(matrix)
    violated = max_abs > 2.0 + BOUNDARY_EPS
    band = np.argwhere((max_abs > 2.0 - BOUNDARY_EPS) & ~violated)
    n_rows, n_cols = np.shape(matrix)
    as_ints = np.asarray(matrix, dtype=np.int64).tolist()
    row_subsets = list(combinations(range(n_rows), 4))
    col_subsets = list(combinations(range(n_cols), 4))
    for rs, cs in band.tolist():
        sub = [[as_ints[i][j] for j in col_subsets[cs]] for i in row_subsets[rs]]
        violated[rs, cs] = oracles.violates_all_orderings(sub)
    return max_abs, violated, len(band)


# ----------------------------------------------------------------------
# artifact readers
# ----------------------------------------------------------------------


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def read_matrix(path: Path):
    rows = _rows(path)
    c2 = rows[0][1:]
    c1 = [r[0] for r in rows[1:]]
    return c1, c2, [[int(v) for v in r[1:]] for r in rows[1:]]


def read_ranking(path: Path):
    return [(term, float(score)) for term, score, _ in _rows(path)[1:]]


# ----------------------------------------------------------------------
# analyze checks
# ----------------------------------------------------------------------


def check_analyze(out: Path, reference: dict, window_sizes, methods, k: int,
                  planted: dict | None = None, scan: bool = False) -> list[str]:
    """Check one analyze output directory.

    Rankings, concepts, matrices, window counts and histograms must equal
    the reference pipeline. With `planted`, concepts, matrices and
    n_entangled must also equal the frozen expectations. With `scan`,
    n_entangled and every reported top violation are checked against
    `subset_scan`.
    """
    problems: list[str] = []
    n_pairs = math.comb(k, 4) ** 2
    summary = {}
    for method in methods:
        path = out / f"summary_{method}.csv"
        if not path.is_file():
            return [f"missing {path.name}"]
        for row in _rows(path)[1:]:
            summary[(row[0], row[1], int(row[2]))] = row
    histograms: dict = {}
    for topic_id, method, w, n, count in _rows(out / "histograms.csv")[1:]:
        histograms.setdefault((topic_id, method, int(w)), {})[int(n)] = int(count)

    for (topic_id, method), ref in reference.items():
        name = f"{topic_id}__{method}"
        ranking = read_ranking(out / "rankings" / f"{name}.csv")
        if [t for t, _ in ranking] != [t for t, _ in ref["ranking"]]:
            problems.append(f"{name}: ranking order differs from the reference")
        elif not all(math.isclose(a, b, rel_tol=1e-12)
                     for (_, a), (_, b) in zip(ranking, ref["ranking"])):
            problems.append(f"{name}: ranking scores differ from the reference")
        for w in window_sizes:
            cell = f"{name}__W{w}"
            c1, c2, counts = read_matrix(out / "matrices" / f"{cell}.csv")
            want = ref["cells"][w]
            if (c1, c2) != (ref["c1"], ref["c2"]):
                problems.append(f"{cell}: concepts differ from the reference")
            if counts != want["matrix"]:
                problems.append(f"{cell}: matrix differs from the reference counts")
            if histograms.get((topic_id, method, w)) != want["histogram"]:
                problems.append(f"{cell}: histogram differs from the reference")
            result = json.loads((out / "results" / f"{cell}.json").read_text(encoding="utf-8"))
            row = summary.get((topic_id, method, w))
            n_ent = result["n_entangled"]
            if row is None or int(row[4]) != n_ent or int(row[5]) != n_pairs:
                problems.append(f"{cell}: summary row disagrees with the result file")
            if result["p"] != n_ent / n_pairs or (row and float(row[3]) != result["p"]):
                problems.append(f"{cell}: p is not n_entangled / {n_pairs}")
            if planted is not None:
                exp = planted["topics"][topic_id]["methods"][method]
                exp_cell = exp["cells"][str(w)]
                if (c1, c2) != (exp["c1"], exp["c2"]):
                    problems.append(f"{cell}: concepts differ from planted_expected")
                if counts != exp_cell["matrix"] or want["n_windows"] != exp_cell["n_windows"]:
                    problems.append(f"{cell}: matrix differs from planted_expected")
                if n_ent != exp_cell["n_entangled"]:
                    problems.append(f"{cell}: n_entangled {n_ent} != planted {exp_cell['n_entangled']}")
            if scan:
                problems += check_violations(cell, counts, c1, c2, result)
    return problems


def check_violations(cell: str, counts, c1, c2, result: dict) -> list[str]:
    """n_entangled and the top violations against the 576-ordering scan."""
    max_abs, violated, _ = subset_scan(counts)
    n_ent = int(violated.sum())
    problems = []
    if result["n_entangled"] != n_ent:
        problems.append(f"{cell}: n_entangled {result['n_entangled']} != scan {n_ent}")
    top = result["top_violations"]
    if len(top) != min(n_ent, TOP_VIOLATIONS):
        problems.append(f"{cell}: {len(top)} top violations for {n_ent} entangled pairs")
    row_subsets = {s: i for i, s in enumerate(combinations(range(len(c1)), 4))}
    col_subsets = {s: i for i, s in enumerate(combinations(range(len(c2)), 4))}
    reported = set()
    previous = math.inf
    for entry in top:
        try:
            rows = tuple(c1.index(t) for t in entry["c1"])
            cols = tuple(c2.index(t) for t in entry["c2"])
            rs, cs = row_subsets[rows], col_subsets[cols]
        except (ValueError, KeyError):
            problems.append(f"{cell}: top violation {entry['c1']} x {entry['c2']} is no subset pair")
            continue
        sub = [[counts[i][j] for j in cols] for i in rows]
        part_r, part_c = entry["partition"]["rows"], entry["partition"]["cols"]
        s = oracles.chsh_fraction(sub, tuple(part_r["unprimed"] + part_r["primed"]),
                                  tuple(part_c["unprimed"] + part_c["primed"]))
        if s is None or abs(s) <= 2 or abs(float(s) - entry["S"]) > S_TOL:
            problems.append(f"{cell}: reported S {entry['S']} is not an exact violation ({s})")
        if abs(abs(entry["S"]) - max_abs[rs, cs]) > S_TOL or not violated[rs, cs]:
            problems.append(f"{cell}: reported |S| {abs(entry['S'])} is not the pair's max "
                            f"{max_abs[rs, cs]}")
        if abs(entry["S"]) > previous + S_TOL:
            problems.append(f"{cell}: top violations are not ordered by |S|")
        previous = abs(entry["S"])
        reported.add((rs, cs))
    if top:
        stronger = np.argwhere(violated & (max_abs > previous + S_TOL))
        if any((rs, cs) not in reported for rs, cs in stronger.tolist()):
            problems.append(f"{cell}: a stronger violation than the reported ones is missing")
    return problems


def same_outputs(first: Path, others) -> list[str]:
    """Every later call's artifacts must equal the first call's, byte for byte."""
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    problems = []
    for other in others:
        theirs = sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
        if theirs != files:
            problems.append(f"{other.name}: artifact set differs from {first.name}")
            continue
        for rel in files:
            if not filecmp.cmp(first / rel, other / rel, shallow=False):
                problems.append(f"{other.name}/{rel}: differs from {first.name}")
    return problems


# ----------------------------------------------------------------------
# simulate checks
# ----------------------------------------------------------------------

# Two-sample agreement within 4 pooled standard errors: about +-0.028
# near p = 0.5, where a false alarm on one of the 7 checked points has a
# chance below 1e-3.
Z_LIMIT = 4.0
CHECK_DRAWS = 10_000
CHECKED_ZIPF_POINTS = 5


def read_curves(path: Path) -> list[dict]:
    out = []
    for row in _rows(path)[1:]:
        kind, lam, mu, bound, n, p_hat, std_err, seed = row
        out.append({"kind": kind, "lambda": float(lam) if lam else None,
                    "mu": float(mu) if mu else None, "B": int(bound), "n": int(n),
                    "p_hat": float(p_hat), "std_err": float(std_err)})
    return out


def _pmf(kind: str, bound: int, parameter) -> list[float]:
    if kind == "zipf":
        weights = [n ** -parameter for n in range(1, bound + 1)]
    elif kind == "homogeneous":
        weights = [1.0] * bound
    else:
        logs = [n * math.log(parameter) - parameter - math.lgamma(n + 1)
                for n in range(1, bound + 1)]
        top = max(logs)
        weights = [math.exp(v - top) for v in logs]
    total = sum(weights)
    return [v / total for v in weights]


def oracle_rate(kind: str, bound: int, parameter, draws: int, seed: int) -> int:
    """Violating matrices among `draws` own i.i.d. draws: decided by the
    576-ordering float scan, and exactly by tests/oracles.py near the bound."""
    rng = random.Random(seed)
    cum = []
    acc = 0.0
    for p in _pmf(kind, bound, parameter):
        acc += p
        cum.append(acc)
    matrices = [
        [[min(bisect.bisect_right(cum, rng.random()) + 1, bound) for _ in range(4)]
         for _ in range(4)]
        for _ in range(draws)
    ]
    best = float_max_abs(matrices)[:, 0, 0]
    band = np.flatnonzero((best > 2.0 - BOUNDARY_EPS) & (best <= 2.0 + BOUNDARY_EPS))
    exact = sum(oracles.violates_all_orderings(matrices[i]) for i in band.tolist())
    return int((best > 2.0 + BOUNDARY_EPS).sum()) + exact


def checked_points(seed: int, zipf_rows: list[dict]) -> list[int]:
    """Seeded choice of zipf grid points to re-estimate."""
    return sorted(random.Random(seed).sample(range(len(zipf_rows)), CHECKED_ZIPF_POINTS))


def _agrees(est: dict, hits: int, draws: int) -> bool:
    # pooled rate with one pseudo-count each way keeps the error positive at p = 0
    pooled = (est["p_hat"] * est["n"] + hits + 1) / (est["n"] + draws + 2)
    se = math.sqrt(pooled * (1 - pooled) * (1 / est["n"] + 1 / draws))
    return abs(est["p_hat"] - hits / draws) <= Z_LIMIT * se


def check_simulate(out: Path, spec: dict) -> list[str]:
    """Check the sweep and baseline curves written for a simulate spec."""
    seed, n_samples, baseline_bound = spec["seed"], spec["samples"], spec["baseline_bound"]
    problems = []
    zipf = read_curves(out / "zipf.csv")
    grid = [(lam, b) for b in spec["bounds"] for lam in spec["lambdas"]]
    if [(r["lambda"], r["B"]) for r in zipf] != grid or any(r["kind"] != "zipf" for r in zipf):
        return ["zipf.csv: grid differs from the requested sweep"]
    baselines = [read_curves(out / "homogeneous.csv"), read_curves(out / "poisson.csv")]
    if [(r[0]["kind"], r[0]["B"], len(r)) for r in baselines] != [
        ("homogeneous", baseline_bound, 1), ("poisson", baseline_bound, 1)
    ]:
        return ["baseline curves differ from the requested points"]
    homogeneous, poisson = baselines[0][0], baselines[1][0]
    rows = zipf + [homogeneous, poisson]
    for r in rows:
        if r["n"] != n_samples or not 0.0 <= r["p_hat"] <= 1.0:
            problems.append(f"{r['kind']} {r['lambda']} {r['B']}: bad n or p_hat")
        want = math.sqrt(r["p_hat"] * (1.0 - r["p_hat"]) / r["n"])
        if not math.isclose(r["std_err"], want, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"{r['kind']} {r['lambda']} {r['B']}: std_err != sqrt(p(1-p)/n)")
    by_point = {(r["lambda"], r["B"]): r["p_hat"] for r in zipf}
    level = sum(by_point[(0.7, b)] for b in (50, 100, 500)) / 3
    if not 0.35 <= level <= 0.65:
        problems.append(f"mean p at lambda 0.7 over B in (50, 100, 500) is {level}, not in [0.35, 0.65]")
    if not by_point[(0.7, 10)] < by_point[(0.7, 100)]:
        problems.append("p at lambda 0.7 does not grow from B=10 to B=100")

    checked = [(zipf[i], "zipf", zipf[i]["lambda"]) for i in checked_points(seed, zipf)]
    checked += [(homogeneous, "homogeneous", None), (poisson, "poisson", poisson["mu"])]
    for index, (est, kind, parameter) in enumerate(checked):
        hits = oracle_rate(kind, est["B"], parameter, CHECK_DRAWS, seed * 1000 + index)
        if not _agrees(est, hits, CHECK_DRAWS):
            problems.append(
                f"{kind} {parameter} B={est['B']}: p_hat {est['p_hat']} disagrees with the "
                f"oracle estimate {hits}/{CHECK_DRAWS}"
            )
    return problems
