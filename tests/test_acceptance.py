"""Acceptance suite: one test per release criterion.

Each criterion prints one pass line (with its key measured numbers) that
bypasses pytest's capture, so it shows up in plain `pytest -v` output; a
failed criterion shows up as the test failure itself.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from fcs_spectral import analysis, cli, fcs, noise, spectral
from fcs_spectral.fcs import (
    aklt,
    from_cstar,
    marginal_difference,
    random_cstar,
    random_chain,
)
from fcs_spectral.opbasis import expand_in_basis
from oracles import dense_state, word_coefficient_tensor

_CACHE: dict = {}


def _aklt_setup():
    if "aklt" not in _CACHE:
        r = from_cstar(aklt())
        _CACHE["aklt"] = (r, spectral.build_omega(r))
    return _CACHE["aklt"]


@pytest.fixture
def report(capsys):
    """Emit one uncaptured pass line per criterion."""

    def _report(line: str):
        with capsys.disabled():
            print(f"\nACCEPTANCE PASS: {line}", flush=True)

    return _report


def test_c1_aklt_exact_round_trip(report):
    """Exact rank-4 reconstruction reproduces every marginal up to t = 7."""
    t0 = time.perf_counter()
    r, od = _aklt_setup()
    tr = spectral.truncate(od.omega, rank=4)
    sr = spectral.spectral_realization(od, tr)
    worst = 0.0
    sizes = range(1, 8)
    for t, diff in zip(sizes, marginal_difference(sr, r, sizes), strict=True):
        td, _ = analysis.difference_distances(diff)
        assert td <= 1e-9, f"t={t}: trace distance {td:.3e} exceeds 1e-9"
        worst = max(worst, td)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"round trip took {elapsed:.1f} s (budget 10 s)"
    report(f"criterion 1 exact round trip t=1..7, worst TD {worst:.2e}, "
            f"{elapsed:.1f} s")


def test_c2_aklt_omega_rank_four(report):
    """The exact 9x9 block form has numerical rank exactly 4."""
    _, od = _aklt_setup()
    s = np.linalg.svd(od.omega, compute_uv=False)
    rank = int((s > 1e-9 * s[0]).sum())
    assert rank == 4
    report(f"criterion 2 rank(Omega) = 4 at threshold 1e-9*sigma_1 "
            f"(sigma_4 = {s[3]:.6f}, sigma_5 = {s[4]:.1e})")


def test_c3_oracle_equivalence_20_models(report):
    """Words match the dense sequential-channel oracle; exact reconstruction
    matches within 1e-8 trace distance, for 20 seeded channel models."""
    worst_word = 0.0
    worst_td = 0.0
    n_models = 0
    for d_a, d_b in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for seed in range(5):
            model = random_cstar(d_a, d_b, seed=100 * d_a + 10 * d_b + seed)
            r = from_cstar(model)
            t = 6
            oracle = expand_in_basis(dense_state(model, t).matrix, d_a, t)
            words = word_coefficient_tensor(r.rho, r.kappa, r.e, t)
            dev = float(np.abs(words - oracle).max())
            assert dev <= 1e-10, f"model ({d_a},{d_b},{seed}): word dev {dev:.2e}"
            worst_word = max(worst_word, dev)
            od = spectral.build_omega(r, 2, 2)
            sv = np.linalg.svd(od.omega, compute_uv=False)
            rank = int((sv > 1e-9 * sv[0]).sum())
            sr = spectral.spectral_realization(od, spectral.truncate(od.omega, rank=rank))
            sizes = range(1, 6)
            for tt, diff in zip(sizes, marginal_difference(sr, r, sizes), strict=True):
                td, _ = analysis.difference_distances(diff)
                assert td <= 1e-8, f"model ({d_a},{d_b},{seed}) t={tt}: TD {td:.2e}"
                worst_td = max(worst_td, td)
            n_models += 1
    assert n_models == 20
    report(f"criterion 3 oracle equivalence on 20 models, worst word dev "
            f"{worst_word:.2e}, worst TD {worst_td:.2e}")


def test_c4_figure_shape_reproduction(tmp_path, report):
    """Noise sweep: mean TD increases with epsilon at every size, and the
    per-site error is flat within a factor 3 at the smallest epsilon."""
    t0 = time.perf_counter()
    cfg = {
        "model": {"kind": "aklt"},
        "truncation": {"mode": "rank", "value": 4},
        "epsilons": [1e-4, 1e-3, 1e-2],
        "sites": [2, 3, 4, 5, 6, 7],
        "trials": 20,
        "seed": 2024,
        "output": "sweep.csv",
    }
    out = cli.cmd_aklt(cfg, tmp_path)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 6 * 20
    means: dict = {}
    for row in rows:
        key = (float(row["epsilon"]), int(row["sites"]))
        means.setdefault(key, []).append(float(row["trace_distance"]))
    means = {k: np.mean(v) for k, v in means.items()}
    eps_list = [1e-4, 1e-3, 1e-2]
    sites = [2, 3, 4, 5, 6, 7]
    pairs = [(means[(e1, t)], means[(e2, t)])
             for t in sites for e1, e2 in zip(eps_list, eps_list[1:])]
    monotone = sum(a < b for a, b in pairs)
    frac = monotone / len(pairs)
    assert frac >= 0.95, f"only {monotone}/{len(pairs)} adjacent pairs monotone"
    per_site = [means[(1e-4, t)] / t for t in sites]
    ratio = max(per_site) / min(per_site)
    assert ratio < 3.0, f"TD/t spread factor {ratio:.2f} at eps=1e-4"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"sweep took {elapsed:.0f} s (budget 300 s)"
    report(f"criterion 4 noise-sweep shape: monotone {monotone}/{len(pairs)} "
            f"pairs, TD/t spread {ratio:.2f}, {elapsed:.0f} s")


def test_c5_perturbation_suites_1000_instances(report):
    """The four matrix-perturbation checkers pass on 1000 random instances
    each (dimensions up to 30) with 1e-9 slack."""
    rng = noise.make_rng(424242)
    n = 1000
    worst = math.inf
    for _ in range(n):
        rows, cols = int(rng.integers(2, 31)), int(rng.integers(2, 31))
        a = rng.standard_normal((rows, cols)) * float(rng.uniform(0.1, 10.0))
        e = rng.standard_normal((rows, cols)) * float(rng.uniform(1e-4, 10.0))
        rep = analysis.check_singular_value_perturbation(a, e)
        assert rep.passed
        worst = min(worst, min(c.margin for c in rep.inequalities))
    for _ in range(n):
        rows, cols = int(rng.integers(2, 31)), int(rng.integers(2, 31))
        a = rng.standard_normal((rows, cols))
        a_t = a + rng.standard_normal((rows, cols)) * float(rng.uniform(1e-6, 1.0))
        rep = analysis.check_pseudoinverse_perturbation(a, a_t)
        assert rep.passed
        worst = min(worst, min(c.margin for c in rep.inequalities))
    for _ in range(n):
        cols = int(rng.integers(2, 31))
        rows = int(rng.integers(cols, 31))
        a = rng.standard_normal((rows, cols))
        eps = float(rng.uniform(0.05, 0.95))
        sig_n = float(np.linalg.svd(a, compute_uv=False)[-1])
        e = rng.standard_normal((rows, cols))
        e *= eps * sig_n * float(rng.uniform(0.1, 1.0)) / float(
            np.linalg.svd(e, compute_uv=False)[0])
        rep = analysis.check_singular_subspace_stability(a, e, eps)
        assert rep.passed
        worst = min(worst, min(c.margin for c in rep.inequalities))
    for _ in range(n):
        rows, cols = int(rng.integers(2, 31)), int(rng.integers(2, 31))
        m = int(rng.integers(1, min(rows, cols) + 1))
        u = np.linalg.qr(rng.standard_normal((rows, m)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, m)))[0]
        s = np.sort(rng.uniform(0.1, 1.0, size=m))[::-1]
        omega = (u * s) @ v.T
        eps = float(rng.uniform(0.01, 0.49))
        e = rng.standard_normal((rows, cols))
        e *= eps * s[-1] * float(rng.uniform(0.1, 1.0)) / float(
            np.linalg.svd(e, compute_uv=False)[0])
        rep = analysis.check_projected_sigma_stability(omega, omega + e, eps, m=m)
        assert rep.passed
        worst = min(worst, min(c.margin for c in rep.inequalities))
    report(f"criterion 5 perturbation suites 4 x 1000 instances, "
            f"worst margin {worst:.2e}")


def test_c6_realization_estimate_bounds(report):
    """Estimate-vs-empirical realization inequalities hold on the spin-1
    model and on random channel models, 20 seeds x 3 admissible noise
    levels, zero violations."""
    _, od_aklt = _aklt_setup()
    checks = 0
    worst = math.inf
    configs = [(od_aklt, 4)]
    for seed in range(20):
        r = from_cstar(random_cstar(2, 2, 5000 + seed))
        od = spectral.build_omega(r)
        sv = np.linalg.svd(od.omega, compute_uv=False)
        rank = int((sv > 1e-9 * sv[0]).sum())
        configs.append((od, rank))
    for idx, (od, rank) in enumerate(configs):
        sig = analysis.sigma_m(od.omega, rank)
        exact = spectral.truncate(od.omega, rank=rank)
        for lvl, factor in enumerate((0.01, 0.1, 0.9)):
            eps = factor * sig / 3.0
            rng = noise.spawn_rng(77, idx, lvl)
            for _ in range(1 if idx else 20):  # 20 seeds on the spin-1 model
                od_hat = noise.perturb_omega_data(od, eps, eps, rng)
                rep = analysis.check_realization_estimate_bounds(od, od_hat, exact)
                assert rep.passed, [c.to_dict() for c in rep.inequalities if not c.ok]
                worst = min(worst, min(c.margin for c in rep.inequalities))
                checks += 1
    report(f"criterion 6 realization-estimate bounds, {checks} checks, "
            f"worst margin {worst:.2e}")


def test_c7_nonhomogeneous_chains(report):
    """Exact recovery of random length-5 chains and monotone noisy error."""
    worst_exact = 0.0
    for seed in (3, 8, 21, 34, 55):
        chain = random_chain(5, 2, 2, seed)
        state = chain.state()
        cod = spectral.build_chain_omega(state, 2, 2)
        recon = spectral.nonhomog_reconstruct(cod, threshold=1e-8)
        td, _ = analysis.difference_distances(recon.state().matrix - state.matrix)
        assert td <= 1e-8, f"chain seed {seed}: exact TD {td:.2e}"
        worst_exact = max(worst_exact, td)
    # noisy path: mean error monotone over three levels
    chain = random_chain(5, 2, 2, 3)
    state = chain.state()
    cod = spectral.build_chain_omega(state, 2, 2)
    ranks = []
    for j in range(1, 5):
        sv = np.linalg.svd(cod.omegas[j], compute_uv=False)
        ranks.append(int((sv > 1e-9 * sv[0]).sum()))
    means = []
    for lvl, eps in enumerate((1e-5, 1e-4, 1e-3)):
        tds = []
        for trial in range(10):
            cod_hat = noise.perturb_chain_omega(cod, eps, noise.spawn_rng(13, lvl, trial))
            recon = spectral.nonhomog_reconstruct(cod_hat, ranks=ranks)
            tds.append(analysis.difference_distances(
                recon.state().matrix - state.matrix)[0])
        means.append(float(np.mean(tds)))
    assert means[0] < means[1] < means[2], f"means not monotone: {means}"
    report(f"criterion 7 chains: worst exact TD {worst_exact:.2e}, noisy "
            f"means {means[0]:.1e} < {means[1]:.1e} < {means[2]:.1e}")


def test_c8_precision_budget_arithmetic(report):
    """Budget formulas and the 145/9 constant match hand evaluation."""
    assert analysis.GUARANTEE_CONSTANT == 145.0 / 9.0
    cases = [
        (0.1, 2.0 / 9.0, 4, 3, 5),
        (0.5, 0.5, 2, 2, 3),
        (0.01, 1.0, 1, 4, 2),
        (0.25, 0.9, 3, 9, 7),
        (0.9, 0.3, 5, 2, 1),
    ]
    for eps, sig, scale, d_a, t in cases:
        pb = analysis.precision_budget(eps, sig, scale, d_a, t)
        sq3 = math.sqrt(3.0)
        sqd = math.sqrt(d_a)
        assert pb.tol_tau_omega == pytest.approx(3 * sig * eps / 4, rel=1e-15)
        assert pb.tol_omega_one == pytest.approx(sq3 * sig * eps / 2, rel=1e-15)
        assert pb.tol_omega == pytest.approx(
            min(sig ** 2 * eps / 12, sq3 * sig ** 3 * eps / (24 * t * scale * sqd)),
            rel=1e-15)
        assert pb.tol_omega_dot == pytest.approx(
            3 * sq3 * sig ** 2 * eps / (8 * t * scale * sqd), rel=1e-15)
        assert pb.epsilon_hs == pytest.approx(
            eps * sig ** 3 / (20 * t * scale * sqd), rel=1e-15)
        assert pb.guaranteed_error == pytest.approx(145.0 * eps / 9.0, rel=1e-15)
    report("criterion 8 precision-budget arithmetic, 5 plug-in cases at "
            "machine precision")


def test_c9_deterministic_reruns(tmp_path, report):
    """Identical config and seed produce byte-identical CSV artifacts."""
    cfg = {
        "model": {"kind": "aklt"},
        "truncation": {"mode": "rank", "value": 4},
        "epsilons": [0.0, 1e-3],
        "sites": [2, 3],
        "trials": 3,
        "seed": 99,
        "output": "det.csv",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for name in ("r1", "r2"):
        rc = cli.main(["aklt", "--config", str(cfg_path), "--out",
                       str(tmp_path / name), "--log-level", "warning"])
        assert rc == 0
    b1 = (tmp_path / "r1" / "det.csv").read_bytes()
    b2 = (tmp_path / "r2" / "det.csv").read_bytes()
    assert b1 == b2
    report(f"criterion 9 determinism: {len(b1)} bytes, reruns identical")
