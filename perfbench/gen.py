"""Seeded input generators for the benchmark workloads.

Run as a script, this writes one workload's inputs (edge lists, seed
files, a vector CSV and a ``manifest.json`` naming them) into a
directory. The benchmark runs it in a child process, so generation time
and memory stay out of every metric, and the program under test only
ever sees the generated files. The same seed gives byte-identical files.

    python3 perfbench/gen.py --workload planted2k-flow --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

RING_CLIQUES = 10_000
RING_CLIQUE_SIZE = 10
RING_SEED_SETS = 6

PLANTED_BLOCKS = 50
PLANTED_BLOCK_SIZE = 40
PLANTED_P_IN = 0.3
PLANTED_P_OUT = 0.002
PLANTED_SEED_MEMBERS = 25
PLANTED_SEED_OUTSIDERS = 5
FLOW_INSTANCES = 8
FLOW_SEED_SETS = 8  # per instance
SPECTRAL_INSTANCES = 2

FLOAT_FMT = "%.17g"


def _streams(seed: int, k: int) -> list[np.random.Generator]:
    """k independent generators derived from one workload seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(k)]


def planted_partition(rng: np.random.Generator) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Planted blocks with noisy cross edges, plus a ring so the graph is connected.

    Returns (n, u, v, w) with one row per undirected edge, u < v, rows sorted
    and unique, weights drawn from U[0.5, 2].
    """
    n = PLANTED_BLOCKS * PLANTED_BLOCK_SIZE
    iu, iv = np.triu_indices(n, k=1)
    same = (iu // PLANTED_BLOCK_SIZE) == (iv // PLANTED_BLOCK_SIZE)
    keep = rng.random(iu.size) < np.where(same, PLANTED_P_IN, PLANTED_P_OUT)
    ring_u = np.arange(n)
    ring_v = (ring_u + 1) % n
    lo = np.concatenate([iu[keep], np.minimum(ring_u, ring_v)])
    hi = np.concatenate([iv[keep], np.maximum(ring_u, ring_v)])
    codes = np.unique(lo * n + hi)
    u, v = codes // n, codes % n
    w = rng.uniform(0.5, 2.0, size=u.size)
    return n, u, v, w


def planted_seed_set(rng: np.random.Generator, n: int, block: int) -> list[int]:
    """PLANTED_SEED_MEMBERS nodes of one block plus outsiders from other blocks."""
    members = np.arange(block * PLANTED_BLOCK_SIZE, (block + 1) * PLANTED_BLOCK_SIZE)
    inside = rng.choice(members, PLANTED_SEED_MEMBERS, replace=False)
    others = np.setdiff1d(np.arange(n), members)
    outside = rng.choice(others, PLANTED_SEED_OUTSIDERS, replace=False)
    return sorted(int(x) for x in np.concatenate([inside, outside]))


def ring_edges() -> tuple[int, np.ndarray, np.ndarray]:
    """The 100k-node ring of cliques from the package's own generator."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from localcluster.synth import ring_of_cliques

    g = ring_of_cliques(RING_CLIQUES, RING_CLIQUE_SIZE)
    src = np.repeat(np.arange(g.n), np.diff(g.indptr))
    fwd = src < g.indices
    return g.n, src[fwd], g.indices[fwd]


def ring_seed_set(q: int) -> list[int]:
    """Clique q plus the first two nodes of the next clique and the last of the previous."""
    n = RING_CLIQUES * RING_CLIQUE_SIZE
    base = q * RING_CLIQUE_SIZE
    extra = [base + RING_CLIQUE_SIZE, base + RING_CLIQUE_SIZE + 1, base - 1]
    return sorted(set(range(base, base + RING_CLIQUE_SIZE)) | {x % n for x in extra})


def ring_vector(rng: np.random.Generator) -> np.ndarray:
    """A dense, strictly positive vector: a smooth bump around the ring plus noise."""
    q = np.arange(RING_CLIQUES * RING_CLIQUE_SIZE) // RING_CLIQUE_SIZE
    q0 = int(rng.integers(RING_CLIQUES))
    bump = np.cos(2.0 * np.pi * (q - q0) / RING_CLIQUES)
    return 2.0 + bump + 0.01 * rng.random(q.size)


def write_edge_list(path: Path, u: np.ndarray, v: np.ndarray, w: np.ndarray | None = None) -> None:
    with open(path, "w", encoding="utf-8") as out:
        if w is None:
            out.writelines(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist()))
        else:
            out.writelines(
                f"{a} {b} {FLOAT_FMT % c}\n" for a, b, c in zip(u.tolist(), v.tolist(), w.tolist())
            )


def write_seed_file(path: Path, labels: list[int]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(f"{x}\n" for x in labels)


def write_vector_csv(path: Path, values: np.ndarray) -> None:
    """'node,value' rows in label order, in the format the CLI reads."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("node,value\n")
        out.writelines(f"{i},{FLOAT_FMT % x}\n" for i, x in enumerate(values.tolist()))


def _write_seed_sets(out: Path, prefix: str, sets: list[list[int]]) -> list[dict]:
    entries = []
    for k, labels in enumerate(sets):
        name = f"{prefix}seed_{k}.txt"
        write_seed_file(out / name, labels)
        entries.append({"file": name, "labels": [str(x) for x in labels]})
    return entries


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs into ``out`` and return its manifest."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "ring100k-local":
        seed_rng, vec_rng = _streams(seed, 2)
        n, u, v = ring_edges()
        write_edge_list(out / "graph.el", u, v)
        cliques = seed_rng.choice(RING_CLIQUES, RING_SEED_SETS, replace=False)
        write_vector_csv(out / "dense.csv", ring_vector(vec_rng))
        manifest = {
            "graphs": [
                {
                    "file": "graph.el",
                    "seed_sets": _write_seed_sets(out, "", [ring_seed_set(int(q)) for q in cliques]),
                }
            ],
            "vector": "dense.csv",
        }
    elif workload in ("planted2k-flow", "planted2k-spectral"):
        flow = workload == "planted2k-flow"
        count, per_graph = (FLOW_INSTANCES, FLOW_SEED_SETS) if flow else (SPECTRAL_INSTANCES, 1)
        graphs = []
        for k, rng in enumerate(_streams(seed, count)):
            n, u, v, w = planted_partition(rng)
            name = f"graph_{k}.el"
            write_edge_list(out / name, u, v, w)
            blocks = rng.choice(PLANTED_BLOCKS, per_graph, replace=False)
            sets = [planted_seed_set(rng, n, int(b)) for b in blocks]
            graphs.append({"file": name, "seed_sets": _write_seed_sets(out, f"g{k}_", sets)})
        manifest = {"graphs": graphs}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest["workload"] = workload
    manifest["seed"] = seed
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
