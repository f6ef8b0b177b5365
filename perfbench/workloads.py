"""Benchmark workloads: inputs generated from a seed, one run, and its output check.

Each workload hands the program only what a user would: files for the two
pipeline workloads, library objects for the atlas sequence. Everything the
program is called with is looked up as a module attribute at call time, so
the tracer can wrap it from outside.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import coexpress.atlas as cx_atlas
import coexpress.graph as cx_graph
import coexpress.pipeline as cx_pipeline
import coexpress.synthetic as cx_synthetic
from coexpress.booster import BoosterConfig
from coexpress.masks import GeneSet
from coexpress.matrix import write_matrix
from coexpress.rfe import majority_baseline

# Output digests of the default seed on the seed commit. Any later change that
# alters one output byte fails these runs.
DEFAULT_SEED = 0
PINNED_DIGESTS = {
    "rfe_paper": "6dc9d393d4e92a90a5e7e723691a549c07bba71c9612a681a0800260f24aaeed",
    "gcn_atlas": "ca9cc5a3b5f495e30e46820a14b115daab484edd94d1085ea623b6cd6c773ace",
    "ingest_wide": "2a88f48035bbd6abd438b7f370e75e1401e33370e652c5f1daebf0207d365e60",
}

# The program's default (`--threads 1`). With 2 threads the `select_threshold`
# pool hands the GIL between the two vCPUs every few milliseconds; its passes
# drew about three times the hypervisor steal of one thread, and that steal
# made `gcn_atlas` too noisy to gate.
THREADS = 1
SITES = {"LN": 90, "Bone": 50, "Liver": 20}
SWEEP = (0.4, 0.9, 0.02)
Q_TOL = 1e-12

# Pipeline workloads plant 4 genes per site, shifted by 20 noise sigmas. With
# the range scheme the combined rule then keeps exactly the 8 LN and Bone
# planted genes on every seed (Liver genes fail the LN/Bone sign rule).
# Dropping 4 genes per step visits 8, 4 and 3 genes, so the balanced stage
# starts from the same 8 genes whichever step the raw stage picks as best,
# and every seed makes the same 36 fits.
PLANTED = 4
EFFECT = 20.0
DROP_PER_STEP = 4
K = 5
# One gene constant over every sample, so normalization drops it and the
# constant-gene log counter has an event to count.
CONSTANT_GENE = "CONST0000"


class CheckError(Exception):
    """A run produced outputs that break an invariant."""


class Workload(NamedTuple):
    setup: Callable[[int, Path], dict]
    run: Callable[[dict, Path, int], object]
    check: Callable[[dict, Path, object], str]


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): _sha256_bytes(p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _check_q(q: float, g, membership, where: str) -> None:
    expected = cx_graph.modularity(g, membership)
    if not math.isclose(q, expected, rel_tol=0.0, abs_tol=Q_TOL):
        raise CheckError(f"{where}: partition q {q!r} != modularity {expected!r}")


def setup_pipeline(genes: int, seed: int, work: Path) -> dict:
    """A planted cohort plus one constant gene, written to TSV files."""
    spec = cx_synthetic.SynthSpec(
        samples_per_class=SITES,
        background_genes=genes - len(SITES) * PLANTED - 1,
        planted_per_class=PLANTED,
        effect_size=EFFECT,
        seed=seed,
    )
    m, _, _ = cx_synthetic.generate(spec)
    m = replace(m, gene_ids=(*m.gene_ids, CONSTANT_GENE),
                values=np.vstack([m.values, np.ones(m.n_samples)]))
    work.mkdir(parents=True, exist_ok=True)
    matrix, labels = work / "matrix.tsv", work / "labels.tsv"
    write_matrix(m, matrix, labels)
    return {
        "matrix": matrix,
        "labels": labels,
        "labels_seq": m.labels,
        "size": {"samples": m.n_samples, "genes": m.n_genes,
                 "input_bytes": matrix.stat().st_size + labels.stat().st_size},
    }


def run_pipeline(booster: BoosterConfig, inputs: dict, out: Path, seed: int) -> Path:
    cfg = cx_pipeline.PipelineConfig(
        matrix=inputs["matrix"],
        labels=inputs["labels"],
        out=out,
        keep_sites=tuple(SITES),
        scheme="range",
        k=K,
        booster=booster,
        drop_per_step=DROP_PER_STEP,
        gcn_sweep=SWEEP,
        seed=seed,
        threads=THREADS,
    )
    return cx_pipeline.run_pipeline(cfg)


def check_pipeline(inputs: dict, out: Path, result: Path) -> str:
    """Digest of MANIFEST's `outputs` map, after the seed-free invariants."""
    floor = majority_baseline(inputs["labels_seq"])
    for stage in ("rfe_raw", "rfe_balanced"):
        acc = json.loads((out / stage / "cv_report.json").read_text())["accuracy"]
        if acc < floor:
            raise CheckError(f"{stage}: best accuracy {acc} below majority baseline {floor}")
    for part in sorted((out / "gcn").glob("*/partition.json")):
        payload = json.loads(part.read_text())
        nodes = sorted(payload["membership"])
        index = {gene: i for i, gene in enumerate(nodes)}
        lines = (part.parent / "edges.tsv").read_text().splitlines()[1:]
        edges = [tuple(index[x] for x in line.split("\t")) for line in lines]
        g = cx_graph.GeneGraph(tuple(nodes), tuple(edges))
        _check_q(payload["modularity"], g, [payload["membership"][n] for n in nodes], str(part))
    outputs = json.loads(result.read_text())["outputs"]
    return _sha256_bytes(json.dumps(outputs, sort_keys=True).encode())


def setup_atlas(seed: int, work: Path) -> dict:
    """559 genes: noise plus six latent-factor blocks whose within-block |r|
    spans the 0.4-0.9 sweep. Four nested tiers (13 < 34 < 133 < 559, the
    paper's set sizes) come from a seeded permutation of the gene IDs. The
    last gene of that permutation is made constant within Liver, so the Liver
    network excludes it and the constant-gene log counter has an event."""
    blocks = (
        cx_synthetic.BlockSpec(60, 0.95), cx_synthetic.BlockSpec(50, 0.9),
        cx_synthetic.BlockSpec(40, 0.85), cx_synthetic.BlockSpec(40, 0.8),
        cx_synthetic.BlockSpec(30, 0.75), cx_synthetic.BlockSpec(30, 0.7),
    )
    spec = cx_synthetic.SynthSpec(
        samples_per_class=SITES,
        background_genes=559 - sum(b.n_genes for b in blocks),
        planted_per_class=0,
        blocks=blocks,
        seed=seed,
    )
    m, _, _ = cx_synthetic.generate(spec)
    order = np.random.default_rng(seed).permutation(m.n_genes)
    values = m.values.copy()
    values[order[-1], m.site_columns("Liver")] = 1.0
    m = replace(m, values=values)
    ids = [m.gene_ids[i] for i in order]
    nested = [GeneSet(f"tier{n}", tuple(ids[:n])) for n in (13, 34, 133, m.n_genes)]
    return {
        "matrix": m,
        "nested": nested,
        "size": {"samples": m.n_samples, "genes": m.n_genes, "input_bytes": m.values.nbytes},
    }


def run_atlas(inputs: dict, out: Path, seed: int) -> dict:
    """The library sequence of `coexpress atlas`."""
    m, nested = inputs["matrix"], inputs["nested"]
    tiers = cx_atlas.tier_genes(nested)
    key_index = {g: i for i, g in enumerate(nested[0].gene_ids)}
    networks, tables = {}, {}
    for cohort in ("all", *SITES):
        wg = cx_graph.build_weighted(m, nested[-1], None if cohort == "all" else cohort)
        g, p, table = cx_graph.select_threshold(wg, *SWEEP, seed=seed, threads=THREADS)
        networks[cohort] = cx_atlas.CommunityNetwork(g, p)
        tables[cohort] = table
    entries = cx_atlas.build_atlas(networks, tiers, key_index, n_tiers=len(nested))
    cx_atlas.export_atlas(entries, networks, tiers, key_index, out)
    return {"networks": networks, "tables": tables}


def check_atlas(inputs: dict, out: Path, result: dict) -> str:
    """Digest of the sweep tables, partitions and atlas files, after the q invariant."""
    payload = {"atlas": _file_digests(out)}
    for cohort, net in result["networks"].items():
        _check_q(net.partition.q, net.graph, net.partition.membership, f"cohort {cohort}")
        payload[cohort] = {
            "threshold": repr(net.graph.threshold),
            "q": repr(net.partition.q),
            "membership": list(net.partition.membership),
            "sweep": [[repr(r.threshold), repr(r.modularity), r.n_edges, r.n_communities]
                      for r in result["tables"][cohort]],
        }
    return _sha256_bytes(json.dumps(payload, sort_keys=True).encode())


# Why each workload exists is recorded with it in BENCHMARK.json.
WORKLOADS = {
    "rfe_paper": Workload(partial(setup_pipeline, 1800), partial(run_pipeline, BoosterConfig()),
                          check_pipeline),
    "gcn_atlas": Workload(setup_atlas, run_atlas, check_atlas),
    "ingest_wide": Workload(partial(setup_pipeline, 6000),
                            partial(run_pipeline, BoosterConfig(n_estimators=10)), check_pipeline),
}
