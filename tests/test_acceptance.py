"""End-to-end acceptance gate for the solver laboratory.

Each test covers one criterion and prints a single PASS/FAIL line
(visible under ``pytest -s``): grid-convergence rates for both marching
schemes, the nonclassical plateau profile, the bifurcation matrix, domain
truncation, transfer-operator identities, the weighted-kernel audit grid,
the truncation-error bound, and the viscous scaling invariance.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from mblab.bounds import AUDIT_ITEMS, BoundParams, lemma_audit
from mblab.experiments import (
    bifurcation_sweep,
    classify_profile,
    desk_manifest,
    domain_study,
    order_table,
    run_cached,
)
from mblab.flux import FluxModel
from mblab.operators import Field, MBLParams, helmholtz_apply, helmholtz_solve

from test_operators import _d2_order4_alone

ALPHA = math.sqrt(2.0 / 3.0)
MODEL = FluxModel(2.0)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_trapezoid_convergence_rates():
    t0 = time.perf_counter()
    rows = order_table("trapezoid", (0.2, 0.9), [60, 120, 240, 480])
    elapsed = time.perf_counter() - t0

    ref_l1 = [7.5416e-03, 1.9684e-03, 4.9891e-04, 1.2589e-04]
    ref_order = [1.9379, 1.9802, 1.9865]
    orders = [rows[i]["order_l1"] for i in (1, 2, 3)]
    ratios = [rows[i]["l1"] / ref_l1[i] for i in range(4)]

    ok = (all(abs(o - r) <= 0.2 for o, r in zip(orders, ref_order))
          and all(1.0 / 1.5 <= q <= 1.5 for q in ratios)
          and elapsed < 60.0)
    _verdict(1, "second-order scheme convergence", ok,
             f"orders={[f'{o:.4f}' for o in orders]} "
             f"l1_ratios={[f'{q:.3f}' for q in ratios]} {elapsed:.1f}s")


def test_criterion_2_third_order_convergence_rates():
    t0 = time.perf_counter()
    rows = order_table("third_order", (0.2, 0.9), [120, 240, 480])
    detail_orders = [rows[1]["order_l1"], rows[2]["order_l1"]]

    finest = {}
    for tau in (0.2, 1.0, 5.0):
        for u_b in (0.75, ALPHA, 0.9):
            pair_rows = order_table("third_order", (tau, u_b), [240, 480])
            finest[(tau, u_b)] = pair_rows[1]["order_l1"]
    elapsed = time.perf_counter() - t0

    ok = (abs(detail_orders[0] - 2.7400) <= 0.25
          and abs(detail_orders[1] - 2.8127) <= 0.25
          and all(o >= 2.3 for o in finest.values())
          and elapsed < 600.0)
    _verdict(2, "third-order scheme convergence", ok,
             f"detail_orders={[f'{o:.4f}' for o in detail_orders]} "
             f"finest_min={min(finest.values()):.4f} {elapsed:.1f}s")


def test_criterion_3_nonclassical_plateau_profile():
    t0 = time.perf_counter()
    m = desk_manifest(tau=5.0, u_B=ALPHA)
    fields = run_cached(m)
    rep = classify_profile(fields[-1], m, FluxModel(m.M))
    elapsed = time.perf_counter() - t0

    speed = max(rep.shock_positions) / m.t_final if rep.shock_positions else 0.0
    ok = (rep.classification == "two_shock_plateau"
          and rep.plateau_value is not None
          and abs(rep.plateau_value - 0.98) <= 0.02
          and abs(speed - 1.02) <= 0.03
          and elapsed < 120.0)
    _verdict(3, "nonclassical plateau", ok,
             f"class={rep.classification} plateau={rep.plateau_value} "
             f"lead_speed={speed:.4f} {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_4_bifurcation_matrix():
    t0 = time.perf_counter()
    pairs = [(tau, u_b) for tau in (0.2, 1.0, 5.0)
             for u_b in (0.75, ALPHA, 0.9)]
    entries = bifurcation_sweep(pairs=pairs)
    elapsed = time.perf_counter() - t0

    monotone = {"single_shock", "rarefaction_shock"}
    want = {
        (0.2, 0.75): monotone, (0.2, ALPHA): monotone, (0.2, 0.9): monotone,
        (1.0, 0.75): {"single_shock", "oscillatory_single_shock"},
        (1.0, ALPHA): {"two_shock_plateau"},
        (1.0, 0.9): {"rarefaction_shock"},
        (5.0, 0.75): {"two_shock_plateau"},
        (5.0, ALPHA): {"two_shock_plateau"},
        (5.0, 0.9): {"two_shock_plateau"},
    }
    by_pair = {(e["tau"], e["u_B"]): e for e in entries}
    problems = []
    for pair, allowed in want.items():
        e = by_pair[pair]
        if e["error"] is not None:
            problems.append(f"{pair}: {e['error']}")
            continue
        rep = e["report"]
        if rep.classification not in allowed:
            problems.append(f"{pair}: got {rep.classification}")
        if pair[0] == 0.2 and not rep.overshoot < 1e-3:
            problems.append(f"{pair}: overshoot {rep.overshoot:.2e}")
        if pair[0] == 5.0 and pair[1] in (0.75, ALPHA) \
                and not rep.overshoot > 0.1:
            problems.append(f"{pair}: overshoot {rep.overshoot:.2e}")

    ok = not problems and elapsed < 900.0
    _verdict(4, "bifurcation matrix", ok,
             f"{'; '.join(problems) if problems else 'all 9 pairs'} "
             f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_5_domain_truncation_agreement():
    base = desk_manifest(tau=5.0, u_B=ALPHA, epsilon=0.001, dx=1e-4,
                         t_final=0.1)
    profiles = []
    for L in (0.25, 0.75, 1.25):
        m = base.derive(L=L)
        profiles.append(run_cached(m)[-1].values[:2501])
    sups = [float(np.max(np.abs(a - b)))
            for i, a in enumerate(profiles)
            for b in profiles[i + 1:]]

    with pytest.warns(UserWarning, match="domain-sizing"):  # deliberately short
        m_long = base.derive(L=0.25, t_final=1.0)
    rep = classify_profile(run_cached(m_long)[-1], m_long,
                           FluxModel(m_long.M))

    ok = max(sups) < 1e-2 and rep.classification == "truncated_invalid"
    _verdict(5, "domain truncation", ok,
             f"max_pairwise_sup={max(sups):.2e} "
             f"long_run={rep.classification}")


def test_criterion_6_transfer_operator_identities():
    t0 = time.perf_counter()
    failures = []

    rng = np.random.default_rng(5)
    c = MBLParams(epsilon=0.1, tau=1.0).disp
    n = 64
    dx = 1.0 / n
    u = rng.uniform(0.1, 1.0, n + 1)
    for order, inner in ((2, helmholtz_apply(u, c, dx)),
                         (4, u[1:-1] - c * _d2_order4_alone(u, dx)[1:-1])):
        w = u.copy()
        w[1:-1] = inner
        back = helmholtz_solve(Field(w), u[0], u[-1], c, dx, order=order)
        err = np.max(np.abs(back.values - u)) / np.max(np.abs(u))
        if err > 1e-12:
            failures.append(f"round-trip order {order}: {err:.2e}")

    x = np.linspace(0.0, 1.0, n + 1)
    for k in range(1, 5):
        v = np.sin(k * math.pi * x)
        mu = 1.0 + c * (2.0 - 2.0 * math.cos(k * math.pi * dx)) / dx**2
        w = helmholtz_apply(v, c, dx)
        if np.max(np.abs(w - mu * v[1:-1])) > 1e-12:
            failures.append(f"eigen apply k={k}")
        back = helmholtz_solve(Field(mu * v), 0.0, 0.0, c, dx, order=2)
        if np.max(np.abs(back.values - v)) > 1e-12:
            failures.append(f"eigen solve k={k}")

    q = x**5 - 2.0 * x**4 + x**3 + 0.5 * x - 3.0
    d2 = 20.0 * x**3 - 24.0 * x**2 + 6.0 * x
    resid = (q[1:-1] - (q[1:-1] - c * _d2_order4_alone(q, dx)[1:-1])) / c
    if np.max(np.abs(resid[1:-1] - d2[2:-2])) > 1e-9:
        failures.append("degree-5 interior stencil")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _verdict(6, "transfer-operator identities", ok,
             f"{'; '.join(failures) if failures else 'all identities'} "
             f"{elapsed:.2f}s")


def test_criterion_7_kernel_audit_grid():
    t0 = time.perf_counter()
    checked = 0
    worst = ("", 0.0)
    for lam in (0.3, 0.5, 0.7):
        for tau in (0.2, 5.0):
            p = BoundParams(lam=lam, C_u=ALPHA, L0=0.1, L=0.75, g_sup=ALPHA,
                            M=2.0, epsilon=0.01, tau=tau)
            s = p.epsilon * math.sqrt(p.tau)
            for x in (0.0, 0.05, 0.1, 0.2, 10.0 * s):
                for item in AUDIT_ITEMS:
                    out = lemma_audit(item, p, x)
                    checked += 1
                    assert out["holds"], (item, lam, tau, x, out)
                    margin = out["lhs"] / out["rhs"] if out["rhs"] else 0.0
                    if margin > worst[1]:
                        worst = (item, margin)
    elapsed = time.perf_counter() - t0
    ok = checked == 270 and elapsed < 30.0
    _verdict(7, "kernel audit grid", ok,
             f"{checked} audits, tightest lhs/rhs={worst[1]:.3f} "
             f"({worst[0]}) {elapsed:.2f}s")


def test_criterion_8_truncation_error_bound():
    base = desk_manifest(tau=5.0, u_B=ALPHA, epsilon=0.01, dx=0.001)
    problems = []
    studies = {L: domain_study(base, [L, 2.0 * L], [0.05, 0.1])["entries"]
               for L in (0.15, 0.25, 0.35)}
    for t in (0.05, 0.1):
        diffs = []
        for L in (0.15, 0.25, 0.35):
            out = next(e for e in studies[L] if e["t"] == t and e["L"] == L)
            if not out["h1_diff"] <= out["bound"]:
                problems.append(
                    f"t={t} L={L}: {out['h1_diff']:.3e} > {out['bound']:.3e}")
            diffs.append(out["h1_diff"])
        if not (diffs[1] < diffs[0] + 1e-12 and diffs[2] < diffs[1] + 1e-12):
            problems.append(f"t={t}: not decreasing {diffs}")

    ok = not problems
    _verdict(8, "truncation-error bound", ok,
             "; ".join(problems) if problems else
             "measured difference under the bound and decreasing in L")


def test_criterion_9_viscous_scaling_invariance():
    m_a = desk_manifest(tau=5.0, u_B=ALPHA, epsilon=0.01, dx=0.001,
                        L=0.25, t_final=0.1)
    m_b = desk_manifest(tau=5.0, u_B=ALPHA, epsilon=0.005, dx=0.0005,
                        L=0.125, t_final=0.05)
    a = run_cached(m_a)[-1].values
    b = run_cached(m_b)[-1].values
    sup = float(np.max(np.abs(a - b)))
    ok = sup < 5.0 * m_a.dx
    _verdict(9, "viscous scaling invariance", ok,
             f"sup_diff={sup:.2e} vs {5.0 * m_a.dx:.2e}")
