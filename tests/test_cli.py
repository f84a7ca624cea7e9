import gc
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import minimaxctrl as mc
from minimaxctrl import cli, minimax_cert, simulate
from minimaxctrl.fileio import sha256_of

from conftest import CONFIG_PATH
from test_minimax_cert import GAMMA_BAR_PIN, singular_pair_certificate

CFG = str(CONFIG_PATH)


def run(argv):
    return cli.main(argv)


def test_synth_hinf_all_models(tmp_path, capsys):
    code = run(["synth-hinf", CFG, "--out-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "hinf_synthesis.json").read_text())
    assert len(doc["entries"]) == 4
    out = capsys.readouterr().out
    assert "gamma_star" in out


def test_synth_hinf_bad_model_index(tmp_path):
    assert run(["synth-hinf", CFG, "--model", "7", "--out-dir", str(tmp_path)]) == 2


def test_synth_hinf_infeasible_level(tmp_path):
    # model 2's attenuation level is above 9, so 4.0 is infeasible
    code = run(["synth-hinf", CFG, "--model", "2", "--gamma", "4.0",
                "--out-dir", str(tmp_path)])
    assert code == 1


def test_synth_hinf_feasible_level(tmp_path):
    code = run(["synth-hinf", CFG, "--model", "2", "--gamma", "12.0",
                "--out-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "hinf_synthesis.json").read_text())
    assert doc["entries"][0]["model"] == 2
    assert doc["entries"][0]["gamma"] == 12.0


def test_synth_minimax_writes_certificate(tmp_path, capsys):
    code = run(["synth-minimax", CFG, "--out-dir", str(tmp_path)])
    assert code == 0
    cert = mc.load_certificate(tmp_path / "certificate.json")
    assert cert.size == 4
    out = capsys.readouterr().out
    assert "gamma_bar" in out
    assert "minimal" in out and "maximal" in out


@pytest.mark.parametrize("gamma", [None, "200"], ids=["search", "gamma"])
def test_synth_minimax_verifies_once_per_accepted_level(tmp_path, monkeypatch, capsys,
                                                        bench_cfg, gamma):
    """synth-minimax prints the worst slack of the check that accepted its
    certificate, the value a fresh `verify_certificate` of it reads, and
    verifies no more often than the search (or synthesis at --gamma) alone."""
    ms, p = bench_cfg.model_set, bench_cfg.penalties
    calls = []
    verify = minimax_cert.verify_certificate

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(minimax_cert, "verify_certificate", counted)
    if gamma is None:
        cert = mc.minimal_feasible_gamma(ms, p)[1]
    else:
        cert = mc.synthesize_certificate(ms, p, float(gamma))
    alone = len(calls)
    calls.clear()
    argv = ["synth-minimax", CFG, "--out-dir", str(tmp_path)]
    assert run(argv + ([] if gamma is None else ["--gamma", gamma])) == 0
    assert len(calls) == alone
    slack = verify(ms, p, cert).worst_violation
    assert f"(verified, worst slack eigenvalue {slack:.3e})" in capsys.readouterr().out
    saved = mc.load_certificate(tmp_path / "certificate.json")
    assert saved.gains.tobytes() == cert.gains.tobytes()


def test_synth_minimax_at_gamma_bar_writes_the_search_certificate(tmp_path):
    """synth-minimax --gamma gamma_bar runs the search's probe at that level,
    so its certificate.json is the plain search's, byte for byte."""
    searched, at_level = tmp_path / "search", tmp_path / "gamma"
    assert run(["synth-minimax", CFG, "--out-dir", str(searched)]) == 0
    assert run(["synth-minimax", CFG, "--gamma", repr(GAMMA_BAR_PIN),
                "--out-dir", str(at_level)]) == 0
    assert ((at_level / "certificate.json").read_bytes()
            == (searched / "certificate.json").read_bytes())


def test_synth_minimax_infeasible_level(tmp_path):
    assert run(["synth-minimax", CFG, "--gamma", "5.0",
                "--out-dir", str(tmp_path)]) == 1


def test_verify_round_trip(tmp_path):
    assert run(["synth-minimax", CFG, "--out-dir", str(tmp_path)]) == 0
    cert_path = str(tmp_path / "certificate.json")
    assert run(["verify", cert_path, CFG]) == 0


def test_verify_rejects_shrunk_certificate(tmp_path, certified):
    _, cert = certified
    shrunk = mc.MinimaxCertificate(
        gamma_bar=cert.gamma_bar, gains=cert.gains, P=0.5 * cert.P
    )
    path = tmp_path / "bad.json"
    mc.save_certificate(shrunk, path)
    assert run(["verify", str(path), CFG]) == 1


def test_verify_rejects_truncated_file(tmp_path, certified):
    _, cert = certified
    path = tmp_path / "cert.json"
    mc.save_certificate(cert, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 3])
    assert run(["verify", str(path), CFG]) == 2


def test_missing_config_is_input_error(tmp_path):
    assert run(["synth-hinf", str(tmp_path / "nope.json")]) == 2


def edited_config(tmp_path, where, value):
    """Copy of the shipped config with the entry at key path `where` replaced."""
    doc = json.loads(CONFIG_PATH.read_text())
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def synthesis_must_not_run(*args, **kwargs):
    pytest.fail("input error detected only after synthesis started")


def assert_rejected_at_load(tmp_path, monkeypatch, where, value):
    # synth-hinf, not reproduce: reproduce also refuses horizons below 4,
    # which would hide a boolean horizon read as 1
    monkeypatch.setattr(cli, "gamma_stars", synthesis_must_not_run)
    cfg = edited_config(tmp_path, where, value)
    assert run(["synth-hinf", cfg, "--out-dir", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("where, value", [
    (("models", 3, "A", 1, 2), float("nan")),
    (("penalties", "Q", 0, 0), float("inf")),
    (("experiment", "x0", 0), float("nan")),
    (("experiment", "gamma"), None),
    (("experiment", "gamma"), "31"),
    (("experiment", "gamma"), 1e7),
    (("experiment", "x0"), {}),
], ids=["model", "penalties", "x0", "gamma-null", "gamma-string", "gamma-huge",
        "x0-object"])
def test_non_finite_input_is_rejected_at_load(tmp_path, monkeypatch, where, value):
    assert_rejected_at_load(tmp_path, monkeypatch, where, value)


@pytest.mark.parametrize("where, value", [
    (("experiment", "true_index"), 2.9),
    (("experiment", "horizon"), 100.7),
    (("experiment", "true_index"), True),
    (("experiment", "horizon"), True),
], ids=["true_index", "horizon", "true_index-bool", "horizon-bool"])
def test_non_integer_input_is_rejected_at_load(tmp_path, monkeypatch, where, value):
    assert_rejected_at_load(tmp_path, monkeypatch, where, value)


MODEL_3 = json.loads(CONFIG_PATH.read_text())["models"][2]


@pytest.mark.parametrize("where, value", [
    (("models", 2, "A"), [row[:-1] for row in MODEL_3["A"]]),
    (("models", 2, "B"), MODEL_3["B"] + MODEL_3["B"][:1]),
    (("penalties", "Q"), [[1.0, 0.0], [0.0, 1.0]]),
    (("penalties", "R"), [[1.0, 0.0], [0.0, 1.0]]),
    (("experiment", "x0"), [1.0, 1.0]),
    (("experiment", "x0"), [[1.0, 1.0, 1.0]]),
], ids=["A-column-dropped", "B-extra-row", "Q-2x2", "R-2x2", "x0-2", "x0-nested"])
def test_mismatched_dimensions_are_rejected_at_load(tmp_path, monkeypatch, where, value):
    assert_rejected_at_load(tmp_path, monkeypatch, where, value)


@pytest.mark.parametrize("where, value, reason", [
    (("P", 4, "i"), None, "P entry i must be an integer"),
    (("P", 4, "i"), 2.7, "P entry i must be an integer"),
    (("P", 4, "i"), "2", "P entry i must be an integer"),
    (("P", 4, "j"), 2.7, "P entry j must be an integer"),
    (("P", 4, "j"), "2", "P entry j must be an integer"),
    (("gamma_bar",), float("nan"), "gamma_bar has a non-finite entry"),
    (("gamma_bar",), True, "gamma_bar must hold only numbers"),
    (("gamma_bar",), -143.16, r"gamma_bar must be in \(0, 1e\+06\]"),
    (("gamma_bar",), 0, r"gamma_bar must be in \(0, 1e\+06\]"),
    (("gamma_bar",), 1e200, r"gamma_bar must be in \(0, 1e\+06\]"),
    (("P", 4, "rows", 1, 0), float("nan"), r"P entry \(2, 2\) has a non-finite entry"),
    (("gains", 2, 0, 1), float("nan"), "certificate gains has a non-finite entry"),
    (("gains",), "2-D", r"gains must be \(F, m, n\), got shape \(4, 3\)"),
    (("P",), {}, "'P' must be a list"),
    (("P", 4), {"i": 2, "j": 2}, "each P entry needs keys i, j, rows"),
    (("P", 4, "i"), 3, r"P entry \(3, 2\) outside the upper triangle of 1..4"),
    (("P", 4, "j"), 3, r"duplicate P entry \(2, 3\)"),
    (("P", 4, "rows"), [[1.0, 0.0], [0.0, 1.0]],
     r"P entry \(2, 2\) has shape \(2, 2\), expected \(3, 3\)"),
    (("P",), "without (2, 2)", r"missing P entries: \[\(2, 2\)\]"),
], ids=["i-null", "i-fraction", "i-string", "j-fraction", "j-string",
        "gamma_bar-nan", "gamma_bar-bool", "gamma_bar-negative", "gamma_bar-zero",
        "gamma_bar-huge",
        "P-nan", "gains-nan", "gains-2d",
        "P-object", "P-entry-no-rows", "P-below-diagonal", "P-duplicate",
        "P-block-shape", "P-missing"])
def test_malformed_certificate_is_rejected_at_load(tmp_path, certificate_file,
                                                    where, value, reason):
    doc = json.loads(pathlib.Path(certificate_file).read_text())
    assert doc["P"][4]["i"] == doc["P"][4]["j"] == 2  # truncation would pass
    if value == "2-D":
        value = [gain[0] for gain in doc["gains"]]  # (F, n) for m = 1
    elif value == "without (2, 2)":
        value = doc["P"][:4] + doc["P"][5:]
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(mc.ConfigError, match=reason):
        mc.load_certificate(path)
    assert run(["verify", str(path), CFG]) == 2


def test_short_horizon_is_rejected_before_synthesis(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "minimal_feasible_gamma", synthesis_must_not_run)
    cfg = edited_config(tmp_path, ("experiment", "horizon"), 0)
    code = run(["reproduce", cfg, "--scenario", "fig1",
                "--out-dir", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("where, value, reason", [
    (("experiment", "true_index"), 3, "confusing target must differ from the true model"),
    (("models",), "first two", "confusing target 3 outside 1..2"),
], ids=["target-is-true-model", "target-outside-set"])
def test_confusing_target_is_rejected_before_synthesis(tmp_path, monkeypatch, capsys,
                                                       where, value, reason):
    monkeypatch.setattr(cli, "minimal_feasible_gamma", synthesis_must_not_run)
    if value == "first two":
        value = json.loads(CONFIG_PATH.read_text())["models"][:2]
    cfg = edited_config(tmp_path, where, value)
    code = run(["reproduce", cfg, "--scenario", "fig3",
                "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth-hinf", "synth-minimax"])
@pytest.mark.parametrize("gamma", ["inf", "nan", "1e308", "1000000.1", "0", "-1"])
def test_gamma_outside_level_range_is_input_error(tmp_path, monkeypatch,
                                                   command, gamma):
    monkeypatch.setattr(cli, "solve_riccati", synthesis_must_not_run)
    monkeypatch.setattr(cli, "_checked_synthesis", synthesis_must_not_run)
    assert run([command, CFG, f"--gamma={gamma}", "--out-dir", str(tmp_path / "out")]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["synth-hinf", "synth-minimax"])
def test_no_level_below_gamma_max_is_infeasible(tmp_path, capsys, command):
    """Q = 1e12 puts sqrt(max eig Q) at GAMMA_MAX: no level is left to search,
    so neither search may report one above it."""
    doc = {"models": [{"A": [[0.5]], "B": [[1.0]]}, {"A": [[-0.4]], "B": [[0.8]]}],
           "penalties": {"Q": [[1e12]], "R": [[1.0]]},
           "experiment": {"true_index": 1, "horizon": 10, "gamma": 1.0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run([command, str(path), "--out-dir", str(out)]) == 1
    assert "no feasible level up to 1e+06" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["reproduce", CFG, "--scenario", "fig1"],
    ["synth-minimax", CFG],
], ids=["reproduce", "synth-minimax"])
def test_gamma_star_table_is_computed_once(tmp_path, gamma_star_calls, argv):
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    assert len(gamma_star_calls) == 1  # one table for all models, for gaps only


@pytest.mark.parametrize("scenario", ["fig1", "fig2", "fig3"])
def test_reproduce_bundle(tmp_path, certificate_file, scenario):
    out = tmp_path / scenario
    code = run(["reproduce", CFG, "--scenario", scenario,
                "--certificate", certificate_file, "--out-dir", str(out)])
    assert code == 0
    for name in ("minimax_traj.csv", "hinf_traj.csv", "regret.csv",
                 "gaps.csv", "certificate.json", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == scenario
    for entry in manifest["artifacts"]:
        assert sha256_of(out / entry["name"]) == entry["sha256"]


def test_reproduce_is_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["reproduce", CFG, "--scenario", "fig3", "--out-dir", str(out_a)]) == 0
    assert run(["reproduce", CFG, "--scenario", "fig3", "--out-dir", str(out_b)]) == 0
    for name in ("minimax_traj.csv", "hinf_traj.csv", "regret.csv", "gaps.csv"):
        assert sha256_of(out_a / name) == sha256_of(out_b / name), name


# sha256 of the shipped bundles, so a change to any cell's bytes shows
SHIPPED_GAPS = "372bd68c4deee6dc7d8a0c43739da3b4ef363250c3768f64997f7cb2fd170445"
SHIPPED_CERTIFICATE = "c123fddb6de4170feb99b683db8fef198c2c0024a5ff0ddab13a8da036a70785"
SHIPPED_BUNDLES = {
    "fig1": {
        "minimax_traj.csv": "636c53a1cb521dff8c3ceec610e9ae9d803b4773e5216dff619f54bdab88fd05",
        "hinf_traj.csv": "ccd12e60d0cd253c33d9dd0400a5d964f08511d540317610d7e854f5e58ef207",
        "regret.csv": "6a5dfb1810034f3915aa22f630976c732ae298c1e8ad3c3133ca29a65f7ab1ed",
    },
    "fig2": {
        "minimax_traj.csv": "938385e756bae7a2d2a49d14a316ed78855dd26e4d42ceb79ff9dc30bcedb393",
        "hinf_traj.csv": "6a74332bc7336e0c97285edc5ca57184c009ef8ce63149a3ba3d79e289e8e139",
        "regret.csv": "4eaf692db3420578fed96ab385cd6529c9828909c683e4f682b7936a24c890ab",
    },
    "fig3": {
        "minimax_traj.csv": "7d7e6d74009775b158edb2d07c211e9342442d60e914cf92bc996fad75347eb4",
        "hinf_traj.csv": "d5861e5cdd03553fc68ae60c177bb6937c4724f80d837d94ed85d487180c9497",
        "regret.csv": "c61a1ee5d731e299a8249d76e3b35ed127c31d6012f07f3df5459aa70314b58e",
    },
}


@pytest.mark.parametrize("scenario", sorted(SHIPPED_BUNDLES))
def test_reproduce_bundle_bytes_are_pinned(tmp_path, scenario):
    """Each shipped bundle file has the pinned bytes, and the manifest lists
    their digests."""
    assert run(["reproduce", CFG, "--scenario", scenario, "--out-dir", str(tmp_path)]) == 0
    pinned = {**SHIPPED_BUNDLES[scenario], "gaps.csv": SHIPPED_GAPS,
              "certificate.json": SHIPPED_CERTIFICATE}
    assert {name: sha256_of(tmp_path / name) for name in pinned} == pinned
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {a["name"]: a["sha256"] for a in manifest["artifacts"]} == pinned


def test_config_disturbance_section_is_ignored(tmp_path, certificate_file):
    """Each scenario builds its own disturbance; a config section changes nothing."""
    sine = edited_config(tmp_path, ("disturbance",),
                         {"kind": "sinusoid", "amplitude": 5.0, "omega": 0.3,
                          "direction": [1.0, 0.0, 0.0]})
    for name, cfg in (("shipped", CFG), ("sine", sine)):
        assert run(["reproduce", cfg, "--scenario", "fig3",
                    "--certificate", certificate_file,
                    "--out-dir", str(tmp_path / name)]) == 0
    for name in ("minimax_traj.csv", "hinf_traj.csv", "regret.csv", "gaps.csv"):
        assert ((tmp_path / "shipped" / name).read_bytes()
                == (tmp_path / "sine" / name).read_bytes()), name


def test_reproduce_with_supplied_certificate(tmp_path, certificate_file):
    out = tmp_path / "out"
    code = run(["reproduce", CFG, "--scenario", "fig3",
                "--certificate", certificate_file, "--out-dir", str(out)])
    assert code == 0


def test_reproduce_rejects_bad_certificate(tmp_path, certified):
    _, cert = certified
    shrunk = mc.MinimaxCertificate(
        gamma_bar=cert.gamma_bar, gains=cert.gains, P=0.5 * cert.P
    )
    cert_path = tmp_path / "bad.json"
    mc.save_certificate(shrunk, cert_path)
    out = tmp_path / "out"
    code = run(["reproduce", CFG, "--scenario", "fig3",
                "--certificate", str(cert_path), "--out-dir", str(out)])
    assert code == 1


@pytest.mark.parametrize("defect, code", [("truncated", 2), ("unverified", 1)])
def test_rejected_certificate_leaves_no_out_dir(tmp_path, certified, defect, code):
    """A certificate that fails to load (exit 2) or to verify (exit 1) is
    rejected before `reproduce` creates its output directory."""
    _, cert = certified
    path = tmp_path / "cert.json"
    if defect == "truncated":
        mc.save_certificate(cert, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 3])
    else:
        mc.save_certificate(mc.MinimaxCertificate(
            gamma_bar=cert.gamma_bar, gains=cert.gains, P=0.5 * cert.P), path)
    out = tmp_path / "out"
    assert run(["reproduce", CFG, "--scenario", "fig1",
                "--certificate", str(path), "--out-dir", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("case", ["X-not-invertible", "P-not-invertible"])
def test_singular_pair_certificate_is_infeasible(tmp_path, models, penalties, case):
    """A certificate whose pair (1, 2) numpy cannot invert is rejected as
    infeasible (exit 1), not as an input error, by `verify` and by
    `reproduce --certificate`, which creates no output directory."""
    path = tmp_path / "cert.json"
    mc.save_certificate(singular_pair_certificate(models, penalties, case), path)
    assert run(["verify", str(path), CFG]) == 1
    out = tmp_path / "out"
    assert run(["reproduce", CFG, "--scenario", "fig1",
                "--certificate", str(path), "--out-dir", str(out)]) == 1
    assert not out.exists()


def test_svg_flag_emits_charts(tmp_path, certificate_file):
    out = tmp_path / "fig1"
    code = run(["reproduce", CFG, "--scenario", "fig1", "--svg",
                "--certificate", certificate_file, "--out-dir", str(out)])
    assert code == 0
    assert (out / "states.svg").exists()
    assert (out / "regret.svg").exists()
    assert (out / "ratio.svg").exists()


def test_out_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
    assert run(["synth-minimax", CFG]) == 0
    assert (target / "certificate.json").exists()


def test_out_dir_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "env"))
    flag_dir = tmp_path / "flag"
    assert run(["synth-minimax", CFG, "--out-dir", str(flag_dir)]) == 0
    assert (flag_dir / "certificate.json").exists()
    assert not (tmp_path / "env").exists()


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("argv", [["synth-hinf", CFG], ["synth-minimax", CFG],
                                  ["reproduce", CFG, "--scenario", "fig1"]],
                         ids=["synth-hinf", "synth-minimax", "reproduce"])
def test_unusable_out_dir_is_input_error(tmp_path, monkeypatch, capsys, argv,
                                         under_file):
    """An --out-dir that is a regular file, or lies under one, exits 2
    before any synthesis."""
    monkeypatch.setattr(cli, "gamma_stars", synthesis_must_not_run)
    monkeypatch.setattr(cli, "minimal_feasible_gamma", synthesis_must_not_run)
    monkeypatch.setattr(cli, "_checked_search", synthesis_must_not_run)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "out" if under_file else blocker
    assert run(argv + ["--out-dir", str(out)]) == 2
    assert "input error: cannot create output directory" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv, blocked", [
    (["synth-hinf", CFG], "hinf_synthesis.json"),
    (["synth-minimax", CFG], "certificate.json"),
    (["reproduce", CFG, "--scenario", "fig1"], "regret.csv"),
    (["reproduce", CFG, "--scenario", "fig1"], "manifest.json"),
], ids=["synth-hinf", "synth-minimax", "reproduce-regret", "reproduce-manifest"])
def test_unwritable_output_file_is_input_error(tmp_path, capsys, argv, blocked):
    """A directory where an output file goes exits 2 with one stderr line
    naming that file, not a traceback and not "infeasible"."""
    (tmp_path / blocked).mkdir()
    assert run(argv + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {tmp_path / blocked}: ")
    assert err.count("\n") == 1
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]


def test_failed_reproduce_leaves_no_stale_manifest(tmp_path, certificate_file):
    """A fig2 run that fails after replacing some of a fig1 bundle's files
    removes the fig1 manifest, which no longer matches them."""
    def reproduce(scenario):
        return run(["reproduce", CFG, "--scenario", scenario,
                    "--certificate", certificate_file, "--out-dir", str(tmp_path)])

    assert reproduce("fig1") == 0
    (tmp_path / "regret.csv").unlink()
    (tmp_path / "regret.csv").mkdir()
    assert reproduce("fig2") == 2
    assert not (tmp_path / "manifest.json").exists()


def test_divergence_maps_to_exit_3(tmp_path, monkeypatch, certificate_file):
    def boom(*args, **kwargs):
        raise mc.DivergedRollout("state norm exceeded limit at step 3")

    monkeypatch.setattr(simulate, "rollout", boom)
    out = tmp_path / "out"
    code = run(["reproduce", CFG, "--scenario", "fig3",
                "--certificate", certificate_file, "--out-dir", str(out)])
    assert code == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == mc.__version__


def module_command(argv):
    """`python -m minimaxctrl.cli ARGV` in a fresh interpreter, the exact
    command a user or the benchmark spawns, with this checkout's package."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "minimaxctrl.cli", *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_writes_the_pinned_bundle(tmp_path):
    """The `__main__` path (`cli.run`) exits 0 with fig1's pinned bytes, and
    a missing config exits 2 with an input error."""
    done = module_command(["reproduce", CFG, "--scenario", "fig1", "--out-dir", str(tmp_path)])
    assert done.returncode == 0, done.stderr
    pinned = {**SHIPPED_BUNDLES["fig1"], "gaps.csv": SHIPPED_GAPS,
              "certificate.json": SHIPPED_CERTIFICATE}
    assert {name: sha256_of(tmp_path / name) for name in pinned} == pinned

    done = module_command(["reproduce", str(tmp_path / "nope.json"), "--scenario", "fig1",
                           "--out-dir", str(tmp_path / "missing")])
    assert done.returncode == 2
    assert done.stderr.startswith("input error:")


def test_run_freezes_the_collector_and_exits_with_main_code(monkeypatch):
    """`run` freezes the collector before `main` and exits with its code."""
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 3
    assert calls == ["freeze", "main"]


def test_main_leaves_the_collector_unfrozen(tmp_path):
    """`main` run in process, as tests and the benchmark's traced children
    do, moves nothing into the permanent generation."""
    frozen = gc.get_freeze_count()
    assert run(["reproduce", CFG, "--scenario", "fig1", "--out-dir", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == frozen
