"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 1, 4, 6, 10 and 11 check lemmas of the argument with
the helpers in ``tests/lemmas.py``, which no CLI kind runs.  Criterion 3
asserts the provable LCD lower bound D_L(x) >= 1/(2||x||inf) and replays
the witness of every counterexample to the unhalved bound
D_L(x) >= 1/||x||inf, which is false as stated.  Every criterion must
pass.
"""

import itertools
import math
import time

import numpy as np

from lemmas import (
    decoupling_consequence_check,
    inverse_image_experiment,
    quadratic_form_distance,
    regularized_lcd,
    row_witness_sets,
)
from ssrmlab.ensemble import RngStream, sample_matrix, sample_sparse_vector
from ssrmlab.harness import ExperimentConfig, run, scaling_consistency, tail_sweep
from ssrmlab.model import EnsembleParams, EntryDistribution
from ssrmlab.smallball import levy_concentration_scalar
from ssrmlab.spectra import norm_bound_experiment, smallest_singular_value
from ssrmlab.structure import StructureConstants, lcd, spread_set

RAD = EntryDistribution("rademacher")
GAUSS = EntryDistribution("standard-gaussian")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_distance_identity():
    # Geometric vs quadratic-form distance, 1e-8 relative, 200 instances.
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    checked = 0
    worst = 0.0
    while checked < 200:
        n = int(rng.integers(2, 31))
        A = sample_matrix(
            EnsembleParams(n, 0.7, GAUSS), RngStream(1001, checked + 1000 * n)
        ).to_dense()
        rec = quadratic_form_distance(A)
        if rec.b_singular:
            continue
        rel = abs(rec.quadratic_form_distance - rec.geometric_distance) / max(
            rec.geometric_distance, 1e-300
        )
        worst = max(worst, rel)
        checked += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        worst <= 1e-8 and elapsed < 10,
        f"200 instances, worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_spectral_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for t in range(100):
        n = int(rng.integers(4, 65))
        A = sample_matrix(EnsembleParams(n, 0.6, GAUSS), RngStream(1002, t)).to_dense()
        oracle = float(np.abs(np.linalg.eigvalsh(A)).min())
        got = smallest_singular_value(A)
        rel = abs(got - oracle) / max(oracle, 1e-300)
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    _report(
        2,
        worst <= 1e-8 and elapsed < 30,
        f"100 instances n<=64, worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_lcd_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(1003)

    # Part (a): event-driven scan vs brute-force grid, step 1e-5, tol 1e-3.
    def grid_first(x, L, theta_max, step=1e-5):
        lsq = L * L
        theta = L
        while theta < theta_max:
            hi = min(theta + 200_000 * step, theta_max)
            grid = np.arange(theta, hi, step)
            y = np.outer(grid, x)
            d2 = ((y - np.round(y)) ** 2).sum(axis=1)
            hits = np.flatnonzero(d2 < lsq * np.log(np.maximum(grid / L, 1.0)))
            if hits.size:
                return float(grid[hits[0]])
            theta = hi
        return None

    worst_gap = 0.0
    for t in range(50):
        n = int(rng.integers(3, 9))
        L = 1.0 if t % 2 == 0 else 2.0
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        res = lcd(x, L)
        assert not res.capped
        g = grid_first(x, L, res.value + 0.01)
        assert g is not None
        worst_gap = max(worst_gap, abs(g - res.value))
    scan_ok = worst_gap <= 1e-3

    # Parts (b), (c): invariants on 1000 random unit vectors.  The provable
    # bound is D >= 1/(2||x||inf): below it every |theta x_i| < 1/2, so
    # dist(theta x, Z^n) = theta > L sqrt(log+(theta/L)).  The unhalved bound
    # D >= 1/||x||inf is false; each vector that breaks it must carry a
    # witness theta < 1/||x||inf whose lattice distance, recomputed here from
    # x alone, is strictly under the threshold.
    def replays(x, L, theta):
        y = theta * x
        d = y - np.round(y)
        return float(d @ d) < L * L * math.log(theta / L)

    above_l_ok = True
    stated_violations = 0
    certified_violations = 0
    halved_violations = 0
    example = None
    combos = [(4, 1.0), (4, 2.0), (8, 1.0), (8, 2.0), (16, 1.0), (16, 2.0)]
    count = 1000
    for i in range(count):
        n, L = combos[i % len(combos)]
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        res = lcd(x, L)
        if not res.capped and res.value <= L:
            above_l_ok = False
        inf_norm = float(np.abs(x).max())
        if res.value < 1.0 / inf_norm - 1e-9:
            stated_violations += 1
            w = res.witness_theta
            if not res.capped and w < 1.0 / inf_norm and replays(x, L, w):
                certified_violations += 1
            if example is None:
                example = (n, L, res.value, 1.0 / inf_norm, w)
        if res.value < 1.0 / (2.0 * inf_norm) - 1e-9:
            halved_violations += 1
    elapsed = time.monotonic() - t0
    halved_ok = halved_violations == 0
    certified_ok = certified_violations == stated_violations
    detail = (
        f"scan-vs-grid worst gap {worst_gap:.2e} (ok={scan_ok}); D>L ok={above_l_ok}; "
        f"provable D>=1/(2||x||inf): {halved_violations}/{count} violations; "
        f"unhalved D>=1/||x||inf: {stated_violations}/{count} counterexamples, "
        f"{certified_violations} certified by witness replay"
    )
    if example is not None:
        detail += (
            f" (e.g. n={example[0]}, L={example[1]}: D={example[2]:.4f} < {example[3]:.4f}, "
            f"witness theta={example[4]:.7f})"
        )
    detail += f", {elapsed:.1f}s"
    _report(3, scan_ok and above_l_ok and halved_ok and certified_ok and elapsed < 60, detail)


def test_criterion_04_regularized_lcd():
    # n = 12 with |spread| = 3 and subsets of size 2: exhaustive coverage.
    consts, lam = StructureConstants(c_s=0.1, c_d=0.1, c_oo=0.25), 0.16
    rng = np.random.default_rng(1004)
    x = rng.standard_normal(12)
    x /= np.linalg.norm(x)
    spread = spread_set(x, consts)
    assert spread is not None and spread.size == 3
    assert math.ceil(lam * 12) == 2

    exact = regularized_lcd(x, consts, lam, budget=3, stream=RngStream(0, 0))
    assert exact.exact
    best = -math.inf
    for combo in itertools.combinations(spread.tolist(), 2):
        sub = x[list(combo)]
        sub /= np.linalg.norm(sub)
        best = max(best, lcd(sub, 1.0).value)
    agree = abs(exact.lower_bound - best) <= 1e-9

    below = 0
    replay_worst = 0.0
    for t in range(100):
        rand = regularized_lcd(x, consts, lam, budget=2, stream=RngStream(2000, t))
        below += rand.lower_bound <= exact.lower_bound + 1e-12
        sub = x[list(rand.witness_subset)]
        sub /= np.linalg.norm(sub)
        replay_worst = max(replay_worst, abs(lcd(sub, 1.0).value - rand.lower_bound))
    _report(
        4,
        agree and below == 100 and replay_worst <= 1e-9,
        f"exact-vs-exhaustive gap {abs(exact.lower_bound - best):.1e}; "
        f"randomized<=exact in {below}/100; worst certificate replay {replay_worst:.1e}",
    )


def test_criterion_05_masked_concentration():
    xs = sample_sparse_vector(100_000, 0.5, RAD, RngStream(1005, 0))
    est = levy_concentration_scalar(xs, 0.5)
    _report(5, abs(est.value - 0.5) <= 0.02, f"L(delta xi, 0.5) = {est.value:.4f} (want 0.5 +- 0.02)")


def test_criterion_06_first_moment_identity():
    t0 = time.monotonic()
    rep = inverse_image_experiment(
        EnsembleParams(100, 0.5, RAD), matrices=20, x_draws=500, master_seed=1006
    )
    elapsed = time.monotonic() - t0
    _report(
        6,
        abs(rep.identity_mean - 1.0) <= 0.1 and elapsed < 120,
        f"mean |A^-1 X|^2 / (p |A^-1|_HS^2) = {rep.identity_mean:.4f} "
        f"({rep.excluded_singular} singular excluded), {elapsed:.1f}s",
    )


def _tail_config(**overrides):
    base = dict(
        kind="tail-sweep",
        dist=RAD,
        eps_grid=(1e-3,),
        n_grid=(200,),
        p_grid=(0.3,),
        trials=2000,
        seed=1008,
        workers=1,
        out="unused.csv",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_criterion_07_scaling_shape():
    t0 = time.monotonic()
    cfg = _tail_config(kind="scaling", n_grid=(100, 200, 400), p_grid=(0.5,), trials=300, seed=1007)
    cells = scaling_consistency(cfg)
    ratios = [c.ratio_to_prev for c in cells if c.ratio_to_prev is not None]
    elapsed = time.monotonic() - t0
    ok = len(ratios) == 2 and all(1 / 3 <= r <= 3 for r in ratios)
    medians = [f"{c.median_smin_scaled:.3f}" for c in cells]
    _report(
        7,
        ok and elapsed < 300,
        f"median s_min sqrt(n/p) = {medians}, consecutive ratios {[f'{r:.3f}' for r in ratios]}, {elapsed:.1f}s",
    )


def test_criterion_08_tail_guard():
    t0 = time.monotonic()
    rows = tail_sweep(_tail_config())
    elapsed = time.monotonic() - t0
    r = rows[0]
    _report(
        8,
        r.p_hat <= 0.02 and elapsed < 600,
        f"n=200 p=0.3 eps=1e-3: p_hat = {r.p_hat:.4f} ({r.successes}/{r.trials}), {elapsed:.1f}s",
    )


def test_criterion_09_norm_bounds():
    t0 = time.monotonic()
    ratios = {}
    ok = True
    for p in (0.1, 0.5, 1.0):
        _, summary = norm_bound_experiment(EnsembleParams(400, p, RAD), trials=20, master_seed=1009, cbar=2.0, eps=0.5)
        ratios[p] = summary["mean_ratio"]
        ok = ok and 1.7 <= summary["mean_ratio"] <= 3.0
    _, gauss = norm_bound_experiment(EnsembleParams(200, 0.5, GAUSS), trials=50, master_seed=1010, cbar=2.0, eps=0.5)
    ok = ok and gauss["bvh_fraction"] >= 0.95
    elapsed = time.monotonic() - t0
    shown = {p: round(r, 3) for p, r in ratios.items()}
    _report(
        9,
        ok,
        f"mean |A|/sqrt(pn) = {shown}, gaussian comparison fraction "
        f"{gauss['bvh_fraction']:.2f}, {elapsed:.1f}s",
    )


def test_criterion_10_combinatorial_witness():
    t0 = time.monotonic()
    n, p, kappa = 400, 0.2, 1
    # m = kappa sqrt(pn) ^ 1/(8p); at p = 0.2 the second term is 0.625,
    # floored to a 1-element J' (p > 1/8 sits outside the sparse regime).
    m = max(1, int(min(kappa * math.sqrt(p * n), 1 / (8 * p))))
    hits = 0
    trials = 500
    for t in range(trials):
        A = sample_matrix(EnsembleParams(n, p, RAD), RngStream(1011, t))
        rng = RngStream(1012, t).generator()
        perm = rng.permutation(n)
        J = [int(v) for v in perm[:kappa]]
        Jp = [int(v) for v in perm[kappa : kappa + m]]
        s = [1 if rng.random() < 0.5 else -1 for _ in range(kappa)]
        i1, i0 = row_witness_sets(A, J, Jp, s, 0.5)
        hits += bool(i1 & i0)
    elapsed = time.monotonic() - t0
    _report(
        10,
        hits >= 0.99 * trials,
        f"|I1 cap I0| >= 1 in {hits}/{trials} trials (need >= {int(0.99 * trials)}), {elapsed:.1f}s",
    )


def test_criterion_11_decoupling():
    t0 = time.monotonic()
    # Exact n = 2 case: both sides identically 1, zero slack needed.
    exact = decoupling_consequence_check(np.eye(2), [0], RAD, 0.5, 4096, RngStream(1013, 0))
    exact_ok = exact.lhs.value == 1.0 and exact.rhs.value == 1.0 and exact.lhs.value**2 <= exact.rhs.value

    rng = np.random.default_rng(1014)
    holds = 0
    for t in range(100):
        G = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.5)
        G = np.triu(G) + np.triu(G, 1).T
        size = int(rng.integers(1, 6))
        J = rng.choice(6, size=size, replace=False).tolist()
        check = decoupling_consequence_check(G, J, RAD, 0.75, 4000, RngStream(1015, t))
        holds += check.holds
    elapsed = time.monotonic() - t0
    _report(
        11,
        exact_ok and holds == 100,
        f"exact case zero-slack ok={exact_ok}; inequality held in {holds}/100 random configs, {elapsed:.1f}s",
    )


def test_criterion_12_determinism(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[experiment]\nkind = tail-sweep\ntrials = 24\nseed = 1016\n"
        "[ensemble]\ndist = rademacher\n"
        "[grid]\nn = 50\np = 0.5\neps = 0.001,0.1\n"
    )
    out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    assert run(str(path), out=str(out1), workers=1) == 0
    assert run(str(path), out=str(out8), workers=8) == 0
    identical = out1.read_bytes() == out8.read_bytes()
    _report(12, identical, f"tail-sweep CSV byte-identical at workers 1 vs 8: {identical}")
