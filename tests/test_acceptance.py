"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live; the
shared desk-scale batch (criteria 6 and 7) dominates the runtime.
"""

import itertools
import time

import numpy as np
import pytest

import socsim
from socsim.gcn import (
    GcnConfig,
    GcnModel,
    TrainInputs,
    _backward,
    _forward,
    _init_params,
    _losses,
    _Rows,
    _Workspace,
)
from socsim.graph import (
    SocialGraph,
    decode_pairs,
    dense_adjacency,
    shortest_path_matrix,
    unconnected_codes,
)
from socsim.harness import (
    ExperimentPlan,
    desk_sim_config,
    emit_report,
    make_folds,
    run_cell,
    run_experiment,
)
from socsim.rng import derive_rng, derive_seed
from socsim.sdna import SimConfig, generate_population, iter_snapshots, mutate
from socsim.similarity import (
    SimilaritySpec,
    augment,
    build_representative,
    katz_matrix,
    l2_row_normalize,
    raw_gravity_scores,
    rpr_matrix,
)

from scalar_scores import (
    feature_score,
    feature_score_one_way,
    pair_score,
    path_score,
    popularity_score,
)

pytestmark = pytest.mark.acceptance

SIMILARITY_MARKERS = ("katz", "rpr", "gg")


def _line(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {desc}{suffix}")


def random_graph(n, density, seed, f=3, classes=2):
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for p in pairs if rng.random() < density]
    return SocialGraph(n=n, edges=frozenset(edges), features=rng.random((n, f)),
                       sdna_of=np.arange(n) % classes)


# --- criterion 1: gradient oracle -------------------------------------------------

def test_criterion_1_gradient_oracle():
    start = time.time()
    g = random_graph(6, 0.45, seed=0)
    test_mask = np.array([[False, False, True, False, False, True]])  # one fold, (1, n)
    configs = [
        ("FTVanilla", "ftvanilla", False, "adjacency"),
        ("FTVanilla+S", "ftvanilla", True, "adjacency"),
        ("F", "f", False, "adjacency"),
        ("T", "t", False, "adjacency"),
        ("TLR", "tlr", False, "adjacency"),
        ("FTKatz+S", "ftvanilla", True, "katz"),
    ]
    eps, rtol, atol = 1e-5, 1e-4, 1e-7
    seed = 3  # every model's init stream
    worst_ratio = 0.0
    for label, variant, use_s, kind in configs:
        rep = build_representative(g, SimilaritySpec(kind=kind))
        inputs = TrainInputs(g_matrix=rep.matrix, x=g.features, labels=g.sdna_of,
                             test_mask=test_mask)
        cfg = GcnConfig(variant=variant, use_s=use_s, layer_units=(5, 4, 3),
                        num_classes=2, dropout_p=0.0)
        model = GcnModel(cfg, _init_params(cfg, [seed], g.n, g.features.shape[1]))
        rows = _Rows(inputs, cfg.num_classes, 1)

        def run():
            # what _fit() runs for one epoch, before its Adam step
            ws = _Workspace(model, inputs)
            probs, cache = _forward(model, ws)
            (fold_loss,) = _losses(probs, rows, model.params, ws.decayed, cfg.weight_decay)
            return fold_loss, cache, ws

        _, cache, ws = run()
        analytic = _backward(model, cache, rows, ws)
        for name, stacked in model.params.items():
            p = stacked[0]  # the k = 1 stack's tensor, a live view
            numeric = np.zeros_like(p)
            for ix in np.ndindex(p.shape):
                orig = p[ix]
                p[ix] = orig + eps
                lp = run()[0]
                p[ix] = orig - eps
                lm = run()[0]
                p[ix] = orig
                numeric[ix] = (lp - lm) / (2 * eps)
            gap = np.abs(analytic[name][0] - numeric)
            bound = atol + rtol * np.maximum(np.abs(analytic[name][0]), np.abs(numeric))
            worst_ratio = max(worst_ratio, float((gap / bound).max()))
            assert np.all(gap <= bound), f"{label}/{name} gradient mismatch"
    elapsed = time.time() - start
    ok = worst_ratio <= 1.0 and elapsed < 10
    _line(1, "gradient oracle, 6 variant configs vs central differences", ok,
          f"worst gap at {100 * worst_ratio:.2f}% of tolerance, {elapsed:.1f}s")
    assert ok


# --- criterion 2: similarity oracles ----------------------------------------------

def test_criterion_2_similarity_oracles():
    start = time.time()
    for seed in range(20):
        g = random_graph(6, 0.5, seed)
        a = dense_adjacency(g)
        expected = np.zeros_like(a)
        for x in range(1, 6):
            expected = expected + 0.005 ** x * np.linalg.matrix_power(a, x)
        assert np.array_equal(katz_matrix(g, 0.005, 5), expected)

    for seed in range(6):
        g = random_graph(7, 0.4, seed)
        exact = rpr_matrix(g, 0.85)
        a = dense_adjacency(g)
        deg = a.sum(axis=1)
        trans = np.where(deg[:, None] > 0, a / np.maximum(deg, 1.0)[:, None], 0.0)
        trans[deg == 0] = np.eye(g.n)[deg == 0]
        iterated = np.eye(g.n)
        for _ in range(10_000):
            iterated = 0.85 * np.eye(g.n) + 0.15 * iterated @ trans
        assert np.all(np.abs(exact - iterated) < 1e-8)

    for seed in range(20):
        g = random_graph(6, 0.4, seed)
        raw = raw_gravity_scores(g)
        sp = shortest_path_matrix(g)
        a = dense_adjacency(g)
        for i in range(g.n):
            for j in range(g.n):
                if i != j and a[i, j] == 0 and np.isfinite(sp[i, j]):
                    assert raw[i, j] == (g.degrees[i] * g.degrees[j]) / sp[i, j] ** 2
                else:
                    assert raw[i, j] == 0.0
    elapsed = time.time() - start
    ok = elapsed < 10
    _line(2, "katz/rpr/gravity against independent oracles", ok, f"{elapsed:.1f}s")
    assert ok


# --- criterion 3: random-graph reduction -------------------------------------------

def test_criterion_3_er_reduction():
    start = time.time()
    n, p, seeds = 50, 0.2, 200
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    counts = []
    for seed in range(seeds):
        cfg = SimConfig(n=n, f=2, y=2, q=2, p=p, t=1.0, r=0.0, c=(0.0,), z=0.0,
                        seed=seed)
        (g, _), = iter_snapshots(cfg, 1)
        # every scored pair connects: the edges are the pairs whose coin came up
        coins = derive_rng(seed, "socialise", 0).random(len(pairs)) < p
        assert g.edges.tolist() == pairs[coins].tolist()
        counts.append(len(g.edges))
    trials = n * (n - 1) // 2
    expected = trials * p
    sigma = np.sqrt(trials * p * (1 - p) / seeds)
    gap = abs(float(np.mean(counts)) - expected)
    elapsed = time.time() - start
    ok = gap < 3 * sigma and elapsed < 30
    _line(3, "full-cutoff rounds reduce to a random graph (3-sigma binomial)", ok,
          f"mean {np.mean(counts):.1f} vs {expected:.1f}, gap {gap:.2f} < {3 * sigma:.2f}, {elapsed:.1f}s")
    assert ok


# --- criterion 4: score algebra ----------------------------------------------------

def test_criterion_4_score_algebra():
    start = time.time()
    checked = 0
    for case in range(1000):
        seed = 10_000 + case
        cfg = SimConfig(n=6, f=3, y=3, q=3, p=1.0, t=0.5,
                        r=float(case % 5) / 4, c=(1.0, 0.5), z=0.0, seed=seed)
        g0, sdnas = generate_population(cfg)
        rng = derive_rng(seed, "edges")
        extra = decode_pairs(unconnected_codes(g0), g0.n)[rng.random(15) < 0.35]
        g = g0.with_edges(extra)
        i, j = (0, 1) if case % 2 else (2, 5)
        # exact symmetry
        assert pair_score(i, j, g, sdnas, cfg) == pair_score(j, i, g, sdnas, cfg)
        # compositionality of the weighted sum
        composed = (
            feature_score(i, j, g, sdnas)
            + cfg.r * popularity_score(i, j, g, sdnas)
            + np.asarray(cfg.c) @ path_score(i, j, g, sdnas)
        )
        assert pair_score(i, j, g, sdnas, cfg) == composed
        # same-record doubling on an edgeless graph (nodes 0,1 share record 0)
        zero_cfg = SimConfig(n=6, f=3, y=3, q=2, p=1.0, t=0.5, r=0.0, c=(0.0,),
                             z=0.0, seed=seed)
        g0b, sdnas_b = generate_population(zero_cfg)
        one_way = feature_score_one_way(g0b.features[0], g0b.features[1], sdnas_b[0])
        assert pair_score(0, 1, g0b, sdnas_b, zero_cfg) == 2.0 * one_way
        # zero cases
        same = SocialGraph(n=3, edges=frozenset(),
                           features=np.tile(g0.features[0], (3, 1)),
                           sdna_of=np.array([0, 1, 2]))
        assert pair_score(0, 1, same, sdnas, cfg) == 0.0
        checked += 1
    elapsed = time.time() - start
    ok = checked == 1000 and elapsed < 5
    _line(4, "score algebra (symmetry, doubling, zeros, composition) x1000", ok,
          f"{elapsed:.1f}s")
    assert ok


# --- criteria 5-7: desk-scale behaviour ---------------------------------------------

ACCEPTANCE_SEED = 2026


def acceptance_batch_plan() -> ExperimentPlan:
    cells = ["FTvanilla", "F", "T", "TLR"]
    for kind in ("katz", "RPR", "GG"):
        for thr in ("0.0-0.5", "0.0-1.0", "0.1-1.0", "auto"):
            cells.append(f"FT{kind}{thr}")
            cells.append(f"SFT{kind}{thr}")
    return ExperimentPlan(
        sim=desk_sim_config(ACCEPTANCE_SEED),
        networks=5,
        snapshots=2,
        cells=tuple(cells),
        folds=10,
        seed=ACCEPTANCE_SEED,
        gcn=GcnConfig(num_classes=4),
    )


@pytest.fixture(scope="module")
def batch_report():
    plan = acceptance_batch_plan()
    start = time.time()
    report = run_experiment(plan)
    report_elapsed["batch"] = time.time() - start
    return report


report_elapsed: dict[str, float] = {}


def test_criterion_5_feature_only_chance_level():
    start = time.time()
    cfg = desk_sim_config(seed=77)
    snaps = list(socsim.iter_snapshots(cfg, 1))
    g, _ = snaps[0]
    masks = make_folds(g.sdna_of, 10, seed=derive_seed(77, "folds"))
    result = run_cell(g, "F", masks, base=GcnConfig(num_classes=4), plan_seed=77)
    elapsed = time.time() - start
    ok = 0.18 <= result.mean <= 0.32 and elapsed < 300
    _line(5, "feature-only model is chance level on simulated labels", ok,
          f"mean acc {result.mean:.3f} in [0.18, 0.32], {elapsed:.1f}s")
    assert ok


def test_criterion_6_integration_hypothesis(batch_report):
    wins = sum(1 for snap in batch_report.snapshots if snap.hypothesis)
    total = len(batch_report.snapshots)
    elapsed = report_elapsed.get("batch", 0.0)
    ok = total == 10 and wins >= 7 and elapsed < 1800
    _line(6, "integration hypothesis holds on the desk-scale batch", ok,
          f"{wins}/{total} snapshots, batch {elapsed:.0f}s")
    assert ok


def test_criterion_7_variant_improvement(batch_report):
    wins = 0
    for snap in batch_report.snapshots:
        ft = snap.cells["FTvanilla"].mean
        sim_means = [
            r.mean for name, r in snap.cells.items()
            if not r.failed and any(tok in name.lower() for tok in SIMILARITY_MARKERS)
        ]
        if sim_means and max(sim_means) >= ft:
            wins += 1
    total = len(batch_report.snapshots)
    ok = wins >= 6
    _line(7, "best similarity cell matches or beats the baseline", ok,
          f"{wins}/{total} snapshots")
    assert ok


# --- criterion 8: determinism --------------------------------------------------------

def test_criterion_8_deterministic_reports(tmp_path):
    start = time.time()
    plan = ExperimentPlan(
        sim=SimConfig(n=60, f=8, y=4, q=3, p=0.4, t=0.02, r=0.25, c=(1.0, 0.5),
                      z=0.3, seed=9),
        networks=1,
        snapshots=2,
        cells=("FTvanilla", "SFTvanilla", "F", "T", "TLR",
               "FTkatz0.0-0.5", "SFTRPRauto", "FTGGauto"),
        folds=5,
        seed=31,
        gcn=GcnConfig(num_classes=4, epochs=25),
    )
    blobs = []
    for run in ("first", "second"):
        report = run_experiment(plan)
        paths = emit_report(report, tmp_path / run)
        blobs.append(paths["report"].read_bytes())
    elapsed = time.time() - start
    ok = blobs[0] == blobs[1]
    _line(8, "rerunning the experiment reproduces report.json byte for byte", ok,
          f"{len(blobs[0])} bytes, {elapsed:.0f}s")
    assert ok


# --- criterion 9: property suites ------------------------------------------------------

def test_criterion_9_property_suites():
    start = time.time()
    # mutation: z=0 identity, z=1 full resample with invariants intact
    for case in range(500):
        cfg = SimConfig(n=4, f=3, y=2, q=3 + case % 3,
                        c=tuple([1.0 / (k + 1) for k in range(2 + case % 3)]),
                        p=0.5, t=0.5, r=0.5, z=0.0, seed=case)
        _, sdnas = generate_population(cfg)
        frozen = mutate(sdnas, cfg, derive_rng(case, "freeze"))
        for a, b in zip(sdnas, frozen):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.l, b.l)
            assert a.d == b.d and np.array_equal(a.k, b.k)
        hot_cfg = SimConfig(n=4, f=3, y=2, q=cfg.q, c=cfg.c, p=0.5, t=0.5,
                            r=0.5, z=1.0, seed=case)
        resampled = mutate(sdnas, hot_cfg, derive_rng(case, "resample"))
        for a, b in zip(sdnas, resampled):
            b.validate()
            assert not np.array_equal(a.w, b.w)
            assert a.d != b.d

    # augmentation: open thresholds change nothing beyond normalize+symmetrize
    open_spec = SimilaritySpec(kind="katz", threshold_lo=0.0, threshold_hi=1.0)
    for case in range(500):
        rng = derive_rng(case, "aug")
        m = rng.random((5, 5)) * (rng.random((5, 5)) > 0.35)
        normalized = l2_row_normalize(m)
        assert np.array_equal(augment(m, open_spec), (normalized + normalized.T) / 2)

    # fold partitioning: disjoint cover with per-class balance
    for case in range(500):
        rng = derive_rng(case, "folds-case")
        classes = int(rng.integers(2, 5))
        folds = int(rng.integers(2, 6))
        counts = rng.integers(folds, 4 * folds, size=classes)
        labels = rng.permutation(np.repeat(np.arange(classes), counts))
        masks = make_folds(labels, folds, seed=case)
        assert masks.shape == (folds, labels.size) and masks.dtype == bool
        for test_mask in masks:
            for cls in range(classes):
                in_fold = (labels[test_mask] == cls).sum()
                assert abs(in_fold - counts[cls] / folds) < 1
        assert np.all(masks.sum(axis=0) == 1)

    elapsed = time.time() - start
    ok = elapsed < 30
    _line(9, "mutation/augmentation/fold property suites (500 cases each)", ok,
          f"{elapsed:.1f}s")
    assert ok
