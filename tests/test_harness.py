"""Run manifests, profile classification, exports, sweeps, and the CLI."""
from __future__ import annotations

import ast
import importlib
import json
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pydantic
import pytest
from hypothesis import given, settings, strategies as st

import mblab
from mblab import bounds, cli, experiments
from mblab.bounds import compare_domains
from mblab.errors import ManifestError, NumericalError
from mblab.experiments import (
    bifurcation_sweep,
    classify_profile,
    desk_manifest,
    domain_study,
    epsilon_sweep,
    export,
    load_manifest,
    order_table,
    run_cached,
    run_manifest,
    smooth_ramp_ic,
)
from mblab.flux import FluxModel
from mblab.operators import Field

ALPHA = math.sqrt(2.0 / 3.0)
MODEL = FluxModel(2.0)


def _tiny(**kw):
    base = dict(epsilon=0.025, tau=1.0, u_B=0.75, L=0.3, L0=0.05,
                dx=0.0025, t_final=0.01)
    base.update(kw)
    return desk_manifest(**base)


# ---------------------------------------------------------------- manifests

def test_desk_manifest_defaults():
    m = desk_manifest()
    assert m.scheme == "trapezoid"
    assert m.M == 2.0
    assert m.epsilon == 0.005
    assert m.tau == 5.0
    assert m.u_B == 0.9
    assert m.L == 0.75
    assert m.dx == 0.0005
    assert m.lam == 0.1
    assert m.t_final == 0.5
    assert m.ic_kind == "riemann"


def test_manifest_validation():
    with pytest.raises(pydantic.ValidationError):
        desk_manifest(scheme="spectral")
    with pytest.raises(pydantic.ValidationError):
        desk_manifest(u_B=1.5)
    with pytest.raises(pydantic.ValidationError):
        desk_manifest(L0=0.8)  # L0 must stay below L
    with pytest.raises(pydantic.ValidationError):
        desk_manifest(dx=-0.1)
    with pytest.raises(pydantic.ValidationError):
        desk_manifest(ic_kind="sawtooth")


@pytest.mark.parametrize("field", ["t_final", "L", "tau", "epsilon", "M", "dx"])
def test_manifest_rejects_infinite_numbers(field):
    with pytest.raises(pydantic.ValidationError):
        desk_manifest(**{field: math.inf})
    with pytest.raises(pydantic.ValidationError):
        desk_manifest(snapshot_times=[0.1, math.inf])


def test_derive_validates_and_keeps_the_cache_key():
    base = desk_manifest(dx=2e-3)
    for update in ({"tau": 0.2, "u_B": ALPHA}, {"epsilon": 0.01},
                   {"L": 0.35, "t_final": 0.05, "snapshot_times": []}):
        assert (base.derive(**update).model_dump_json(by_alias=True)
                == base.model_copy(update=update).model_dump_json(by_alias=True))
    with pytest.raises(pydantic.ValidationError):
        base.derive(u_B=1.5)


def test_manifest_warns_when_domain_is_too_short():
    with pytest.warns(UserWarning):
        desk_manifest(t_final=5.0)


def test_manifest_json_round_trip(tmp_path):
    m = _tiny()
    p = tmp_path / "m.json"
    p.write_text(m.model_dump_json(by_alias=True))
    assert '"lambda"' in p.read_text()
    assert load_manifest(p) == m


def test_manifest_echo_format_accepted(tmp_path):
    m = _tiny()
    p = tmp_path / "echo.json"
    p.write_text(json.dumps(
        {"manifest": json.loads(m.model_dump_json(by_alias=True)),
         "code_version": "whatever"}))
    assert load_manifest(p) == m


def test_manifest_lambda_alias(tmp_path):
    m = _tiny()
    data = json.loads(m.model_dump_json(by_alias=True))
    data["lambda"] = 0.2
    p = tmp_path / "m.json"
    p.write_text(json.dumps(data))
    assert load_manifest(p).lam == 0.2


def test_load_manifest_rejects_unknown_keys(tmp_path):
    data = json.loads(_tiny().model_dump_json(by_alias=True))
    data["junk"] = 1
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ManifestError):
        load_manifest(p)


def test_smooth_ramp_ic():
    assert smooth_ramp_ic(-1.0, 0.9) == 0.9
    assert smooth_ramp_ic(5.0, 0.9) == pytest.approx(0.45, abs=1e-15)
    assert smooth_ramp_ic(11.0, 0.9) == 0.0
    x = np.linspace(-12.0, 15.0, 500)
    u = smooth_ramp_ic(x, 0.9)
    assert np.all(np.diff(u) <= 1e-15)
    assert np.all((u >= 0.0) & (u <= 0.9))


# ----------------------------------------------------------- classification

def _node_profile(m, pts):
    n = round(m.L / m.dx)
    x = np.linspace(0.0, m.L, n + 1)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return Field(np.interp(x, xs, ys))


def test_classify_single_shock():
    m = desk_manifest(tau=0.2, u_B=0.75)
    u = _node_profile(m, [(0.0, 0.75), (0.4, 0.75), (0.4015, 0.0), (0.75, 0.0)])
    rep = classify_profile(u, m, MODEL)
    assert rep.classification == "single_shock"
    assert rep.overshoot < 1e-12
    assert rep.shock_positions
    assert max(rep.shock_positions) == pytest.approx(0.4, abs=0.01)


def test_classify_oscillatory_single_shock():
    m = desk_manifest(tau=1.0, u_B=0.75)
    u = _node_profile(m, [(0.0, 0.75), (0.375, 0.75), (0.3765, 0.78),
                          (0.3795, 0.78), (0.381, 0.75), (0.4, 0.75),
                          (0.4015, 0.0), (0.75, 0.0)])
    rep = classify_profile(u, m, MODEL)
    assert rep.classification == "oscillatory_single_shock"
    assert rep.overshoot == pytest.approx(0.03, abs=2e-3)


def test_classify_rarefaction_shock():
    m = desk_manifest(tau=1.0, u_B=0.9)
    u = _node_profile(m, [(0.0, 0.9), (0.1, 0.9), (0.3, ALPHA), (0.5, ALPHA),
                          (0.5015, 0.0), (0.75, 0.0)])
    rep = classify_profile(u, m, MODEL)
    assert rep.classification == "rarefaction_shock"
    assert rep.plateau_value == pytest.approx(ALPHA, abs=5e-3)


def test_classify_two_shock_plateau():
    m = desk_manifest(tau=5.0, u_B=ALPHA)
    u = _node_profile(m, [(0.0, ALPHA), (0.2, ALPHA), (0.205, 0.98),
                          (0.45, 0.98), (0.4515, 0.0), (0.75, 0.0)])
    rep = classify_profile(u, m, MODEL)
    assert rep.classification == "two_shock_plateau"
    assert rep.plateau_value == pytest.approx(0.98, abs=5e-3)
    assert max(rep.shock_positions) == pytest.approx(0.45, abs=0.01)
    assert rep.overshoot > 0.1


def test_classify_truncated_profile():
    m = desk_manifest(tau=5.0, u_B=ALPHA)
    u = _node_profile(m, [(0.0, ALPHA), (0.5, ALPHA), (0.75, 0.3)])
    rep = classify_profile(u, m, MODEL)
    assert rep.classification == "truncated_invalid"


# ------------------------------------------------------------- runs/exports

def test_run_manifest_deterministic():
    m = _tiny()
    a = run_manifest(m)[-1]
    b = run_manifest(m)[-1]
    assert a.time == pytest.approx(m.t_final)
    assert np.array_equal(a.values, b.values)


def test_run_cached_returns_same_object():
    m1 = _tiny(t_final=0.005)
    m2 = _tiny(t_final=0.005)
    assert m1 is not m2
    assert run_cached(m1) is run_cached(m2)


def test_run_cached_results_are_read_only():
    fields = run_cached(_tiny(t_final=0.005))
    with pytest.raises(ValueError):
        fields[-1].values[0] = 1.0


@settings(deadline=None, max_examples=12)
@given(scheme=st.sampled_from(["trapezoid", "midpoint", "third_order"]),
       times=st.lists(st.one_of(st.integers(1, 19).map(lambda k: k * 5e-4),
                                st.floats(0.0, 0.01, exclude_min=True,
                                          exclude_max=True)),
                      min_size=1, max_size=3))
def test_snapshots_never_change_a_run(scheme, times):
    # _tiny runs to t = 0.01 in pairs of 5e-4; most drawn floats are off
    # that grid and are landed by a shorter step
    m = _tiny(scheme=scheme, snapshot_times=times)
    fields = run_manifest(m)
    for s, f in zip(sorted(set(times)), fields):
        alone = run_manifest(m.derive(t_final=s, snapshot_times=[]))[-1]
        assert f.time == s
        assert f.values.tobytes() == alone.values.tobytes()
    plain = run_manifest(m.derive(snapshot_times=[]))[-1]
    assert fields[-1].values.tobytes() == plain.values.tobytes()


def test_third_order_rejects_cfl_violation(tmp_path):
    # lambda*max|f'(u)| is about 0.6 from the first step, while f' of the
    # evolved w stays near 0.2 or below
    m = desk_manifest(scheme="third_order", dx=2e-3, lam=0.3, t_final=0.0024)
    with pytest.raises(NumericalError, match="CFL"):
        run_manifest(m)
    path = tmp_path / "m.json"
    path.write_text(m.model_dump_json(by_alias=True))
    assert cli.main(["riemann", "--manifest", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 3


def test_export_round_trip(tmp_path):
    m = _tiny(snapshot_times=[0.005])
    fields = run_manifest(m)
    assert len(fields) == 2
    paths = export(fields, m, output_dir=tmp_path)
    raw = (tmp_path / "snapshots.csv").read_text().splitlines()
    assert raw[0] == "x,u,t"
    n_nodes = round(m.L / m.dx) + 1
    assert len(raw) == 1 + 2 * n_nodes
    data = np.loadtxt(paths["csv"], delimiter=",", skiprows=1)
    # 17 significant digits survive the text round trip bit-for-bit
    assert np.array_equal(data[:n_nodes, 1], fields[0].values)
    assert np.array_equal(data[n_nodes:, 1], fields[1].values)
    assert set(np.unique(data[:, 2])) == {fields[0].time, fields[1].time}
    echoed = load_manifest(paths["manifest"])
    assert echoed == m


def test_export_is_reproducible(tmp_path):
    m = _tiny(snapshot_times=[0.005])
    fields = run_manifest(m)
    a = export(fields, m, output_dir=tmp_path / "a")
    b = export(fields, m, output_dir=tmp_path / "b")
    assert (tmp_path / "a" / "snapshots.csv").read_bytes() == \
        (tmp_path / "b" / "snapshots.csv").read_bytes()
    assert (tmp_path / "a" / "manifest.json").read_bytes() == \
        (tmp_path / "b" / "manifest.json").read_bytes()
    assert a["csv"] != b["csv"]


def test_export_without_fields_writes_manifest_only(tmp_path):
    m = _tiny()
    paths = export([], m, output_dir=tmp_path)
    assert (tmp_path / "manifest.json").exists()
    assert not (tmp_path / "snapshots.csv").exists()
    assert paths.get("csv") is None


def test_order_table_single_level_has_no_rate():
    rows = order_table("trapezoid", (1.0, 0.75), [60])
    assert len(rows) == 1
    assert rows[0]["N"] == 60
    assert rows[0]["l1"] > 0 and rows[0]["l2"] > 0 and rows[0]["linf"] > 0
    assert rows[0]["order_l1"] is None


def test_bifurcation_sweep_isolates_failures():
    base = _tiny(lam=0.3)
    entries = bifurcation_sweep(pairs=[(0.2, 0.6), (0.2, 0.2)], base=base)
    assert [(e["tau"], e["u_B"]) for e in entries] == [(0.2, 0.2), (0.2, 0.6)]
    ok, bad = entries
    assert ok["error"] is None and ok["report"] is not None
    assert bad["report"] is None and "CFL" in bad["error"]


def test_domain_study_smoke():
    study = domain_study(_tiny(), [0.2, 0.3], [0.01])
    assert study["L_ref"] == 0.3
    entries = study["entries"]
    assert len(entries) == 2
    for e in entries:
        assert {"t", "L", "classification", "sizing_ok",
                "h1_diff", "sup_diff", "bound"} <= set(e)
        assert e["sizing_ok"]
    small = next(e for e in entries if e["L"] == 0.2)
    assert small["h1_diff"] is not None and small["h1_diff"] >= 0.0
    assert small["bound"] > 0.0


def _fresh_caches(monkeypatch) -> list:
    """Empty run caches, and the list of manifests run_manifest runs."""
    monkeypatch.setattr(experiments, "_RUN_CACHE", {})
    monkeypatch.setattr(experiments, "_LANDED", {})
    runs, real = [], experiments.run_manifest

    def counted(manifest):
        runs.append(manifest)
        return real(manifest)

    monkeypatch.setattr(experiments, "run_manifest", counted)
    return runs


def test_domain_study_runs_each_domain_once(monkeypatch):
    runs = _fresh_caches(monkeypatch)
    base, L_values, times = _tiny(), [0.2, 0.3], [0.0063, 0.01]  # 0.0063 is off-grid
    study = domain_study(base, L_values, times)
    assert len(runs) == 2
    run_cached(_tiny(t_final=0.0063, L=0.2))
    assert len(runs) == 2

    # the same entries from one fresh run per (t, L)
    experiments._RUN_CACHE.clear()
    experiments._LANDED.clear()
    expected = []
    for t in times:
        for L in L_values:
            m = base.derive(L=L, t_final=t, snapshot_times=[])
            report = classify_profile(run_cached(m)[-1], m, MODEL)
            cmp = (compare_domains(base, L, 0.3, t) if L < 0.3
                   else dict.fromkeys(("h1_diff", "sup_diff", "bound")))
            expected.append({"t": t, "L": L,
                             "classification": report.classification,
                             "sizing_ok": L > MODEL.D * t, **cmp})
    assert len(runs) == 2 + 4
    assert study["entries"] == expected


def test_domain_study_isolates_a_numerical_error(monkeypatch):
    real = bounds.bound_constants

    def overflow_at_late_time(p, t):
        if t == 0.01:
            raise NumericalError(f"bound constants overflow at t = {t}")
        return real(p, t)

    base, L_values, times = _tiny(), [0.2, 0.25, 0.3], [0.005, 0.01]
    intact = domain_study(base, L_values, times)["entries"]
    monkeypatch.setattr(bounds, "bound_constants", overflow_at_late_time)
    entries = domain_study(base, L_values, times)["entries"]
    failed = [e for e in entries if "error" in e]
    assert [(e["t"], e["L"]) for e in failed] == [(0.01, 0.2), (0.01, 0.25)]
    for e in failed:
        assert e["error"] == "NumericalError: bound constants overflow at t = 0.01"
        assert e["h1_diff"] is e["sup_diff"] is e["bound"] is None
        assert e["classification"] is not None
    assert [e for e in entries if "error" not in e] == \
        [e for e in intact if (e["t"], e["L"]) not in {(0.01, 0.2), (0.01, 0.25)}]


def test_domain_study_survives_a_failed_domain_run(monkeypatch):
    base, L_values, times = _tiny(), [0.2, 0.3], [0.005, 0.01]
    intact = domain_study(base, L_values, times)["entries"]
    runs = _fresh_caches(monkeypatch)
    counted = experiments.run_manifest

    def domain_run_fails(manifest):
        if manifest.snapshot_times and manifest.L == 0.2:
            raise NumericalError("CFL violation")
        return counted(manifest)

    monkeypatch.setattr(experiments, "run_manifest", domain_run_fails)
    assert domain_study(base, L_values, times)["entries"] == intact
    # the L = 0.3 domain ran once; each L = 0.2 entry made its own run
    assert sorted((m.L, m.t_final, m.snapshot_times) for m in runs) == \
        [(0.2, 0.005, []), (0.2, 0.01, []), (0.3, 0.01, [0.005, 0.01])]


def test_derived_runs_are_validated_before_they_run(monkeypatch):
    runs = []
    monkeypatch.setattr(experiments, "run_manifest", runs.append)
    base = _tiny()  # L0 = 0.05
    with pytest.raises(pydantic.ValidationError):
        domain_study(base, [0.04, 0.3], [0.01])
    with pytest.raises(pydantic.ValidationError):
        compare_domains(base, 0.04, 0.3, 0.01)
    with pytest.raises(pydantic.ValidationError):
        epsilon_sweep(base, [-0.01])
    entries = bifurcation_sweep(pairs=[(5.0, 1.5), (5.0, -0.2)], base=base)
    assert [e["report"] for e in entries] == [None, None]
    assert all(e["error"].startswith("ValidationError") for e in entries)
    assert runs == []


def test_domain_study_flags_short_domains_without_a_warning():
    base = _tiny()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        study = domain_study(base, [0.06, 0.3], [0.06])
    assert [e["sizing_ok"] for e in study["entries"]] == [False, True]


@settings(deadline=None, max_examples=20)
@given(data=st.data(), t=st.floats(min_value=0.002, max_value=0.05))
def test_h1_diff_decreases_in_L(data, t):
    # two domains of whole cells, each longer than L0 and than D t (the
    # sizing_ok condition), against one reference domain
    base, L_ref = _tiny(), 0.6
    first = math.floor(max(base.L0, MODEL.D * t) / base.dx) + 1
    cells = data.draw(st.lists(st.integers(first, round(L_ref / base.dx) - 1),
                               min_size=2, max_size=2, unique=True))
    h1 = [compare_domains(base, k * base.dx, L_ref, t)["h1_diff"]
          for k in sorted(cells)]
    assert h1[1] < h1[0]


def test_epsilon_sweep_widths_grow():
    out = epsilon_sweep(_tiny(t_final=0.02), [0.02, 0.04])
    assert [r["epsilon"] for r in out] == [0.02, 0.04]
    assert 0.0 < out[0]["width"] < out[1]["width"]


# --------------------------------------------------------------------- CLI

@pytest.fixture()
def manifest_file(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text(_tiny().model_dump_json(by_alias=True))
    return p


def test_cli_riemann(manifest_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = cli.main(["riemann", "--manifest", str(manifest_file),
                   "--output-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "snapshots.csv").exists()
    assert (out_dir / "manifest.json").exists()
    assert "classification:" in capsys.readouterr().out


def test_cli_missing_manifest(tmp_path):
    rc = cli.main(["riemann", "--manifest", str(tmp_path / "nope.json")])
    assert rc == 4


def test_cli_rejects_unknown_manifest_keys(tmp_path):
    p = tmp_path / "bad.json"
    data = json.loads(_tiny().model_dump_json(by_alias=True))
    data["junk"] = True
    p.write_text(json.dumps(data))
    assert cli.main(["riemann", "--manifest", str(p)]) == 2


def test_cli_rejects_bad_override(manifest_file):
    rc = cli.main(["riemann", "--manifest", str(manifest_file),
                   "--u-B", "1.5"])
    assert rc == 2


def test_cli_cfl_violation_exit_code(manifest_file, tmp_path, capsys):
    rc = cli.main(["riemann", "--manifest", str(manifest_file),
                   "--u-B", "0.6", "--lambda", "0.5",
                   "--output-dir", str(tmp_path / "x")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_non_finite_boundary_value_exit_code(manifest_file, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setattr(experiments, "_bc_for", lambda manifest: (math.nan, 0.0))
    rc = cli.main(["riemann", "--manifest", str(manifest_file),
                   "--output-dir", str(tmp_path / "x")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--t-final", "--snapshot-times", "--tau",
                                  "--epsilon"])
def test_cli_nan_manifest_number_is_a_validation_error(manifest_file, tmp_path,
                                                       flag):
    rc = cli.main(["riemann", "--manifest", str(manifest_file), flag, "nan",
                   "--output-dir", str(tmp_path / "x")])
    assert rc == 2
    assert not (tmp_path / "x").exists()


def test_cli_order_test(manifest_file, capsys):
    rc = cli.main(["order-test", "--manifest", str(manifest_file),
                   "--levels", "60"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "# scheme=trapezoid" in out
    assert "60" in out


def test_cli_sweep(manifest_file, capsys):
    rc = cli.main(["sweep", "--manifest", str(manifest_file),
                   "--pairs", "0.2:0.2"])
    assert rc == 0
    assert "->" in capsys.readouterr().out


def test_cli_sweep_reports_an_out_of_range_pair_as_its_error(manifest_file, capsys):
    rc = cli.main(["sweep", "--manifest", str(manifest_file),
                   "--pairs", "5:1.5,5:-0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("ERROR ValidationError") == 2
    assert "u_B must lie in [0, 1]" in out


def test_cli_bound(manifest_file, capsys):
    rc = cli.main(["bound", "--manifest", str(manifest_file), "--t", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bound = " in out
    assert "a_tau = " in out


def test_cli_lemma_audit(manifest_file, capsys):
    rc = cli.main(["lemma-audit", "--manifest", str(manifest_file),
                   "--items", "L2i,L4i", "--x", "0,0.05"])
    assert rc == 0
    assert "# all audits hold" in capsys.readouterr().out


def test_cli_start_up_leaves_out_the_unused_scipy_modules():
    # scipy serves the LAPACK solves only; the lemma audit integrates on its own
    code = "\n".join([
        "import sys, mblab.cli",
        "from mblab.bounds import AUDIT_ITEMS, BoundParams, lemma_audit",
        "p = BoundParams(lam=0.5, C_u=0.8, L0=0.1, L=0.75, g_sup=0.8, M=2.0,",
        "                epsilon=0.01, tau=5.0)",
        "for item in AUDIT_ITEMS[:6]:",
        "    lemma_audit(item, p, 0.05)",
        "print(*[m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special',",
        "                    'scipy.sparse') if m in sys.modules])",
    ])
    src = str(pathlib.Path(mblab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("verb, args, code", [
    ("bound", ["--t", "100"], 3),  # exp overflows in the bound constants
    ("order-test", ["--levels", "0"], 2),
    ("domain-study", ["--L-values", ",", "--times", "0.1"], 2),
    ("domain-study", ["--L-values", "0.2,0.3", "--times", ","], 2),
])
def test_cli_bad_arguments_exit_with_a_documented_code(manifest_file, capsys,
                                                        verb, args, code):
    assert cli.main([verb, "--manifest", str(manifest_file), *args]) == code
    err = capsys.readouterr().err
    assert err.startswith({2: "validation error", 3: "numerical failure"}[code])
    assert "Traceback" not in err


def test_cli_domain_study(manifest_file, capsys):
    rc = cli.main(["domain-study", "--manifest", str(manifest_file),
                   "--L-values", "0.2,0.3", "--times", "0.01"])
    assert rc == 0
    assert "# reference L = 0.3" in capsys.readouterr().out


def test_cli_domain_study_prints_an_error_row(manifest_file, capsys, monkeypatch):
    real = bounds.bound_constants

    def overflow_at_late_time(p, t):
        if t == 0.01:
            raise NumericalError(f"bound constants overflow at t = {t}")
        return real(p, t)

    monkeypatch.setattr(bounds, "bound_constants", overflow_at_late_time)
    rc = cli.main(["domain-study", "--manifest", str(manifest_file),
                   "--L-values", "0.2,0.3", "--times", "0.005,0.01"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# reference L = 0.3"
    assert lines[1].startswith("t=0.005 L=0.2 ") and "sup_diff=" in lines[1]
    assert lines[3] == ("t=0.01 L=0.2 ERROR NumericalError: "
                        "bound constants overflow at t = 0.01")
    assert len(lines) == 5


def test_cli_eps_sweep(manifest_file, capsys):
    rc = cli.main(["eps-sweep", "--manifest", str(manifest_file),
                   "--eps-values", "0.02,0.04"])
    assert rc == 0
    assert "epsilon=" in capsys.readouterr().out


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["--version"])
    assert exc_info.value.code == 0


@pytest.mark.parametrize("name", ["mblab"] + sorted(
    f"mblab.{m.name}" for m in pkgutil.iter_modules(mblab.__path__)
    if m.name != "__main__"))  # importing __main__ runs the CLI
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# the analytic Riemann solution that the tau = 0 runs are checked against
REFERENCE_ONLY = {"classical_bl_profile"}


def test_every_exported_name_has_a_caller_in_the_package():
    # every exported name and every top-level function and class, private
    # ones included; a use is a loaded name or an attribute anywhere in the
    # submodules, outside the name's own top-level definition and the
    # __all__ lists
    defined, used = set(), set()
    for path in pathlib.Path(mblab.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if any(getattr(t, "id", None) == "__all__" for t in getattr(node, "targets", ())):
                defined.update(e.value for e in node.value.elts)
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            names = {sub.id for sub in ast.walk(node)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            names |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
            used |= names - {getattr(node, "name", None)}
    assert sorted(defined - used - REFERENCE_ONLY) == []
