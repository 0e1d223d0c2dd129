import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maglorentz import cli, medium
from maglorentz.cli import (EXPERIMENTS, MAX_ANNULUS_BOX, MAX_GK_PATH_JUMPS,
                            MAX_GK_GRID, MAX_SWEEP_ROWS, ConfigError,
                            config_to_text, main, validate)

MSD_CONFIG = """
# minimal msd experiment
eps = 0.01
mu = 1.0
eta = 1.0
t_grid = 0.5, 1.0
n_replicas = 4
seed = 12
"""

SCALING_CONFIG = """
eps_list = 4e-3, 2e-3
mu = 1.0
eta = 2.0
b = 1.0
t = 1.0
n_replicas = 10
seed = 12
"""

CIRCLING_CONFIG = """
eps = 0.01
mu = 0.1
eta = 1.0
b = 1.0
n_fields = 20000
n_paths = 20000
seed = 99
"""

GREEN_KUBO_CONFIG = ("mu = 1.0\nperiod = 1.0\nn_paths = 5000\n"
                     "t_cut = 4.0\ndt_quad = 0.02\nseed = 3\n")
SWEEP_CONFIG = "mu = 1.0\nb_max = 2.0\nb_step = 1.0\nm_modes = 16\n"
KINETIC_CONFIG = "mu = 1.0\nb = 1.0\neta = 2.0\nt_end = 0.2\nn_x = 1\nn_v = 16\n"
HILBERT_CONFIG = ("mu = 1.0\nb = 1.0\neta_list = 2, 4\nt_probe = 0.2\n"
                  "n_x = 1\nn_v = 16\n")

# one valid config of every kind
BASE_CONFIGS = {
    "msd": MSD_CONFIG, "scaling-study": SCALING_CONFIG,
    "green-kubo": GREEN_KUBO_CONFIG, "operator-sweep": SWEEP_CONFIG,
    "kinetic": KINETIC_CONFIG, "hilbert": HILBERT_CONFIG,
    "circling": CIRCLING_CONFIG,
}


def with_key(text, key, value):
    """``text`` with ``key = value`` in place of any line setting ``key``."""
    lines = [line for line in text.splitlines()
             if line.split("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


def _decades(lo, hi):
    """Floats 10^x for x uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


class TestValidate:
    def test_minimal_msd_defaults(self):
        config = validate(MSD_CONFIG, "msd")
        assert config["kind"] == "msd"
        assert config["b"] == 0.0
        assert config["max_events"] == 100_000
        assert config["t_grid"] == [0.5, 1.0]

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'mu'"):
            validate(MSD_CONFIG + "\nmu = 2.0", "msd")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'pressure'"):
            validate(MSD_CONFIG + "\npressure = 3", "msd")

    def test_all_errors_reported_at_once(self):
        text = "eps = -1\nmu = abc\nunknown_thing = 2\n"
        with pytest.raises(ConfigError) as err:
            validate(text, "msd")
        messages = "\n".join(err.value.errors)
        assert "unknown key" in messages
        assert "cannot parse" in messages
        assert "missing required key" in messages
        assert "must be positive" in messages

    def test_eta_rule_conflict(self):
        base = ("eps_list = 4e-3, 2e-3\nmu = 1\nb = 1\nt = 1\n"
                "n_replicas = 5\nseed = 1\n")
        ok = validate(base + "eta = 2\n", "scaling-study")
        assert ok["eta"] == 2.0
        with pytest.raises(ConfigError, match="not both"):
            validate(base + "eta = 2\neta_coeff = 1\neta_exponent = 0.1\n",
                     "scaling-study")
        with pytest.raises(ConfigError, match="need 'eta'"):
            validate(base, "scaling-study")

    @pytest.mark.parametrize("kind,text", [
        ("msd", MSD_CONFIG), ("scaling-study", SCALING_CONFIG)],
        ids=["msd", "scaling-study"])
    def test_replica_caps_checked(self, kind, text):
        # max_events is the one cap; the daisy window is a constant
        with pytest.raises(ConfigError) as err:
            validate(text + "k_max_leaves = 64\nmax_events = 0\n", kind)
        assert err.value.errors == [
            f"unknown key 'k_max_leaves' for kind '{kind}'",
            "key 'max_events' must be positive"]
        assert validate(text + "max_events = 1\n", kind)["max_events"] == 1

    @pytest.mark.parametrize("kind,key,value,bound", [
        ("kinetic", "dt", "0", "positive"),
        ("hilbert", "dt_safety", "-1", "positive"),
        ("kinetic", "l_box", "0", "positive"),
        ("hilbert", "l_box", "-2", "positive"),
        ("operator-sweep", "m_modes", "0", "positive"),
        ("operator-sweep", "quadrature_order", "-3", "positive"),
        ("kinetic", "n_x", "-1", "nonnegative"),
        # the datum's mode, at n_x = 1 in both base configs
        ("kinetic", "rho_mode", "7", "at most 'n_x' in magnitude"),
        ("hilbert", "rho_mode", "-2", "at most 'n_x' in magnitude"),
        ("operator-sweep", "b_min", "-1", "nonnegative"),
        ("kinetic", "n_v", "4", "at least 8"),
        ("hilbert", "n_v", "7", "at least 8"),
        ("msd", "eta", "0.5", "at least 1"),
        ("scaling-study", "eta", "0.5", "at least 1"),
        ("kinetic", "eta", "0.5", "at least 1"),
        ("circling", "eta", "0.99", "at least 1"),
        # one sample has no standard error; it used to be written as NaN
        ("msd", "n_replicas", "1", "at least 2"),
        ("green-kubo", "n_paths", "1", "at least 2"),
    ])
    def test_bound_rejected(self, kind, key, value, bound):
        with pytest.raises(ConfigError) as err:
            validate(with_key(BASE_CONFIGS[kind], key, value), kind)
        assert err.value.errors == [f"key '{key}' must be {bound}"]

    @pytest.mark.parametrize("kind,key", [
        (kind, key) for kind, experiment in EXPERIMENTS.items()
        for key, spec in experiment.keys.items()
        if spec.typ in ("float", "floats")])
    def test_non_finite_value_rejected(self, tmp_path, capsys, kind, key):
        validate(BASE_CONFIGS[kind], kind)
        is_list = EXPERIMENTS[kind].keys[key].typ == "floats"
        for value in ("nan", "inf", "-inf"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(with_key(BASE_CONFIGS[kind], key,
                                    f"0.5, {value}" if is_list else value))
            out = tmp_path / "run"
            assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
            assert f"key '{key}': cannot parse" in capsys.readouterr().err
            assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("coeff,expo,shown", [
        ("0.5", "0", "eta = 0.5 at eps = 0.004"),
        ("1", "1e5", "eta = inf at eps = 0.004"),
        ("-1", "0.5", "eta = -15.8114 at eps = 0.004"),
        ("1.06", "-0.01", "eta = 0.99613 at eps = 0.002"),
    ], ids=["below-1", "overflow", "negative", "second-radius"])
    def test_eta_rule_checked_at_every_radius(self, tmp_path, capsys,
                                              coeff, expo, shown):
        text = SCALING_CONFIG.replace("eta = 2.0", f"eta_coeff = {coeff}\n"
                                      f"eta_exponent = {expo}")
        with pytest.raises(ConfigError) as err:
            validate(text, "scaling-study")
        assert err.value.errors == [
            f"the eta rule gives {shown}; it must be finite and at least 1"]
        cfg = tmp_path / "sc.cfg"
        cfg.write_text(text)
        assert main(["scaling-study", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert shown in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("b_max,b_step,ok", [
        ("999999", "1", True),  # 10^6 rows, the cap
        ("1000000", "1", False),  # one row more
        ("10", "1e-9", False),
        ("1e300", "1e-300", False),  # the ratio overflows to inf
    ])
    def test_sweep_rows_capped(self, b_max, b_step, ok):
        # validation alone: nothing runs and no row is allocated
        text = with_key(with_key(SWEEP_CONFIG, "b_max", b_max), "b_step", b_step)
        if ok:
            assert validate(text, "operator-sweep")["b_max"] == float(b_max)
            return
        with pytest.raises(ConfigError) as err:
            validate(text, "operator-sweep")
        assert err.value.errors == [
            "the sweep from 'b_min' to 'b_max' by 'b_step' must have at most "
            f"{MAX_SWEEP_ROWS} rows"]

    @pytest.mark.parametrize("t_cut,dt_quad,ok", [
        ("9999", "1", True),  # 10^4 grid points, the cap
        ("10000", "1", False),  # one point more
        ("6", "1e-4", False),
        ("1e300", "1e-300", False),  # the ratio overflows to inf
    ])
    def test_green_kubo_grid_capped(self, t_cut, dt_quad, ok):
        # validation alone: no path is drawn and no grid allocated; a tiny
        # mu keeps every path's expected jumps under their own cap, and a
        # long period keeps exp(-2 mu period) below 1
        text = GREEN_KUBO_CONFIG
        for key, value in (("mu", "1e-300"), ("period", "1e300"),
                           ("t_cut", t_cut), ("dt_quad", dt_quad)):
            text = with_key(text, key, value)
        if ok:
            assert validate(text, "green-kubo")["t_cut"] == float(t_cut)
            return
        with pytest.raises(ConfigError) as err:
            validate(text, "green-kubo")
        assert err.value.errors == [
            "the grid from 0 to 't_cut' by 'dt_quad' must have at most "
            f"{MAX_GK_GRID} points"]

    @pytest.mark.parametrize("t_cut", [99.99, 99.992, 99.995, 99.996])
    def test_green_kubo_grid_cap_counts_the_built_grid(self, t_cut):
        # these t_cut straddle 10^4 grid points at dt_quad = 0.01; the cap
        # counts the points the grid is built with
        built = len(np.arange(0.0, t_cut + 0.005, 0.01))
        text = with_key(with_key(GREEN_KUBO_CONFIG, "t_cut", t_cut),
                        "dt_quad", 0.01)
        try:
            accepted = validate(text, "green-kubo")["t_cut"] == t_cut
        except ConfigError as err:
            assert err.errors == [
                "the grid from 0 to 't_cut' by 'dt_quad' must have at most "
                f"{MAX_GK_GRID} points"]
            accepted = False
        assert accepted == (built <= MAX_GK_GRID)

    @pytest.mark.parametrize("mu,t_cut,shown", [
        ("25", "4", None),  # the old cap on a 20,000-path block
        ("5e5", "4", None),  # 2 x 5e5 x 4 = 4e6 jumps a path, the cap
        ("5.2e5", "4", "4.16e+06"),
        ("1e308", "4", "inf"),  # the product overflows
    ])
    def test_green_kubo_path_jumps_capped(self, mu, t_cut, shown):
        # validation alone: no path is drawn
        text = with_key(with_key(GREEN_KUBO_CONFIG, "mu", mu), "t_cut", t_cut)
        if shown is None:
            assert validate(text, "green-kubo")["mu"] == float(mu)
            return
        with pytest.raises(ConfigError) as err:
            validate(text, "green-kubo")
        assert err.value.errors == [
            f"one path must expect at most {MAX_GK_PATH_JUMPS} jumps, got "
            f"2 mu t_cut = {shown}"]

    @pytest.mark.parametrize("mu, shown", [
        ("1e-15", None),  # exp(-2e-15) rounds below 1
        ("1e-20", "2e-20"),
    ])
    def test_green_kubo_unending_leaves_refused(self, tmp_path, capsys, mu,
                                                shown):
        # exp(-2 mu period) rounding to 1 would leave a lumped scatter's
        # geometric leaves an escape probability of 0
        text = with_key(GREEN_KUBO_CONFIG, "mu", mu)
        if shown is None:
            assert validate(text, "green-kubo")["mu"] == float(mu)
            return
        message = (f"2 mu period must be large enough that exp(-2 mu period) "
                    f"< 1, got 2 mu period = {shown}")
        with pytest.raises(ConfigError) as err:
            validate(text, "green-kubo")
        assert err.value.errors == [message]
        cfg = tmp_path / "gk.cfg"
        cfg.write_text(text)
        assert main(["green-kubo", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("key,value,shown", [
        ("b", "2.5e-3", None),  # mu_eff = 10, box side 1600.02: 6.4e6
        ("b", "1.25e-3", "2.56e+07"),
        ("mu", "1e6", "4.08e+08"),
        ("mu", "1e308", "inf"),  # mu_eff overflows
        ("b", "1e-200", "inf"),  # the box's squared side overflows
    ])
    def test_circling_box_capped(self, tmp_path, capsys, key, value, shown):
        text = with_key(CIRCLING_CONFIG, key, value)
        if shown is None:
            assert validate(text, "circling")[key] == float(value)
            return
        message = (f"one field sample's box must hold at most "
                   f"{MAX_ANNULUS_BOX} obstacles on average, "
                   f"got mu_eff (2 (1/b + eps))^2 = {shown}")
        with pytest.raises(ConfigError) as err:
            validate(text, "circling")
        assert err.value.errors == [message]
        cfg = tmp_path / "circ.cfg"
        cfg.write_text(text)
        assert main(["circling", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.filterwarnings("ignore::maglorentz.medium.RegimeWarning")
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(eps=_decades(-4, -0.3), mu=_decades(-3, 6), eta=_decades(0, 3),
           b=_decades(-6, 3))
    def test_circling_cap_is_the_drawn_box(self, eps, mu, eta, b):
        # the rule refuses on the very mean count the annulus draw uses
        # (about a third of these examples are refused), and the field's
        # intensity and radius are the plain formulas
        params = medium.scaling_from(eps, mu, eta, b)
        assert params.mu_eff == eta * mu / eps
        assert params.larmor_radius == 1.0 / b
        count = medium.annulus_box_mean(medium.ScalingParams(eps, mu, eta, b))
        text = CIRCLING_CONFIG
        for key, value in (("eps", eps), ("mu", mu), ("eta", eta), ("b", b)):
            text = with_key(text, key, repr(value))
        if count <= MAX_ANNULUS_BOX:
            assert validate(text, "circling")["b"] == b
            return
        with pytest.raises(ConfigError) as err:
            validate(text, "circling")
        assert err.value.errors == [
            f"one field sample's box must hold at most {MAX_ANNULUS_BOX} "
            f"obstacles on average, got mu_eff (2 (1/b + eps))^2 = {count:.3g}"]

    def test_kind_mismatch(self):
        with pytest.raises(ConfigError, match="does not match"):
            validate(MSD_CONFIG + "\nkind = circling", "msd")

    def test_round_trip(self):
        config = validate(MSD_CONFIG, "msd")
        again = validate(config_to_text(config), "msd")
        assert again == config


# a bound's smallest allowed value, and whether that value is excluded
_LOWEST = {"positive": (0, True), "nonnegative": (0, False),
           "at least 1": (1, False), "at least 2": (2, False),
           "at least 8": (8, False)}
# keys drawn so that their kind's rule holds: the float lists, an eta rule
# that gives a finite eta of at least 1 on all but extreme eps lists, and an
# operator sweep of at most 10^5 + 1 rows
_RULED = {
    "t_grid": st.lists(st.floats(0.0, 1e6, exclude_min=True), min_size=1,
                       max_size=5, unique=True).map(sorted),
    "eps_list": st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         min_size=1, max_size=5, unique=True
                         ).map(lambda v: sorted(v, reverse=True)),
    "eta_list": st.lists(st.floats(1.0, 1e6), min_size=1, max_size=5,
                         unique=True).map(sorted),
    "eta_coeff": st.floats(1.0, 1e6),
    "eta_exponent": st.floats(0.0, 1.0),
    "b_min": st.floats(0.0, 1e3),
    "b_max": st.floats(1e3, 1e4),
    "b_step": st.floats(0.1, 1e6),
}


# keys drawn, for one kind, from ranges on which its rule holds whatever
# the other keys: a green-kubo grid of at most 9,901 points (t_cut / dt_quad
# at most 9,900) and mu t_cut at most 1.98e6, and a circling box of at most
# 10 / 1e-3 x (2 (1 + 1))^2 = 1.6e5 obstacles
_RULED_BY_KIND = {
    "green-kubo": {"mu": st.floats(0.0, 2e4, exclude_min=True),
                   "t_cut": st.floats(0.0, 99.0, exclude_min=True),
                   "dt_quad": st.floats(0.01, 1e6)},
    "circling": {"eps": st.floats(1e-3, 1.0), "mu": st.floats(1e-3, 1.0),
                 "eta": st.floats(1.0, 10.0), "b": st.floats(1.0, 1e3)},
}


def _key_values(kind, spec, key):
    ruled = {**_RULED, **_RULED_BY_KIND.get(kind, {})}
    if key in ruled:
        return ruled[key]
    low, strict = _LOWEST.get(spec.bound, (None, False))
    if spec.typ == "int":
        return st.integers(min_value=None if low is None else low + strict)
    return st.floats(min_value=low, exclude_min=strict, allow_nan=False,
                     allow_infinity=False)


# optional keys drawn as one choice among alternatives: scaling-study takes
# 'eta' or both keys of the eta rule, so independent draws would break its
# rule in most cases
_ALTERNATIVES = {"scaling-study": (("eta",), ("eta_coeff", "eta_exponent"))}


@pytest.mark.parametrize("kind", list(EXPERIMENTS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_config_round_trip(kind, data):
    config = {"kind": kind}
    alternatives = _ALTERNATIVES.get(kind, ())
    chosen = data.draw(st.sampled_from(alternatives)) if alternatives else ()
    grouped = {key for keys in alternatives for key in keys}
    for key, spec in EXPERIMENTS[kind].keys.items():
        if key in grouped:
            if key not in chosen:
                continue  # the alternative not drawn
        elif spec.default is None and not data.draw(st.booleans()):
            continue  # an optional key left out
        config[key] = data.draw(_key_values(kind, spec, key), label=key)
    assume(not list(EXPERIMENTS[kind].rule(config)))
    assert validate(config_to_text(config), kind) == config


class TestMainFlow:
    def test_invalid_config_no_files(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MSD_CONFIG.replace("eps = 0.01", "eps = -0.01"))
        out = tmp_path / "run"
        code = main(["msd", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "must be positive" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"mu = 1\xff\n")
        assert main(["operator-sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config: ")
        assert err.count("\n") == 1
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("parent", ["missing", "a_file"])
    def test_out_directory_missing_exits_2_before_running(
            self, tmp_path, capsys, monkeypatch, parent):
        cfg = tmp_path / "a_file"
        cfg.write_text(SWEEP_CONFIG)
        monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("ran"))
        out = tmp_path / parent / "run"
        assert main(["operator-sweep", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: no writable directory '{out.parent}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file"]

    def test_failed_write_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIG)
        (tmp_path / "run_dsweep.csv").mkdir()  # the CSV cannot be opened
        assert main(["operator-sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "run_dsweep.csv" in err
        assert not (tmp_path / "run_summary.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_usage_error(self, tmp_path, capsys, workers):
        cfg = tmp_path / "msd.cfg"
        cfg.write_text(MSD_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["msd", "--config", str(cfg), "--out", str(tmp_path / "run"),
                  "--workers", workers])
        assert exc.value.code == 2
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    def test_all_aborted_radius_exits_1_no_files(self, tmp_path, capsys):
        cfg = tmp_path / "sc.cfg"
        cfg.write_text("eps_list = 4e-3, 2e-3\nmu = 1\nb = 1\nt = 0.5\n"
                       "n_replicas = 10\nseed = 9\neta = 2\nmax_events = 1\n")
        out = tmp_path / "run"
        assert main(["scaling-study", "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert "eps=0.004 reached max_events=1" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    def test_memory_weight_of_one_exits_1(self, tmp_path, capsys):
        # exp(-2 mu T) rounds to 1 at mu = 1e-300: no truncation will do
        cfg = tmp_path / "kin.cfg"
        cfg.write_text(with_key(with_key(KINETIC_CONFIG, "mu", "1e-300"),
                                "t_end", "0.1"))
        assert main(["kinetic", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 1
        assert "error: memory series needs" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    def test_circling_run_outputs(self, tmp_path):
        cfg = tmp_path / "circ.cfg"
        cfg.write_text(CIRCLING_CONFIG)
        out = tmp_path / "circ"
        code = main(["circling", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        csv = (tmp_path / "circ_circling.csv").read_text().splitlines()
        assert csv[0] == "route,estimate,std_error,reference"
        assert csv[1].startswith("field_annulus,")
        summary = json.loads((tmp_path / "circ_summary.json").read_text())
        assert summary["kind"] == "circling"
        assert summary["toolkit"] == "maglorentz"
        # the two routes agree with their references (loose gate; the tight
        # statistical gates live in the acceptance suite)
        p_ref = math.exp(-0.4 * math.pi)
        assert abs(summary["results"]["p_field"] - p_ref) < 0.02
        assert summary["results"]["p_field_ref"] == pytest.approx(p_ref)
        assert abs(summary["results"]["p_process"]
                   - summary["results"]["p_process_ref"]) < 0.02

    def test_regime_warning_is_one_line(self, tmp_path, capsys):
        # mu_eff eps = 0.25: one stderr line, with no file, line number or
        # source echo
        cfg = tmp_path / "circ.cfg"
        text = CIRCLING_CONFIG
        for key, value in (("mu", "0.25"), ("n_fields", "100"),
                           ("n_paths", "100")):
            text = with_key(text, key, value)
        cfg.write_text(text)
        assert main(["circling", "--config", str(cfg),
                     "--out", str(tmp_path / "circ")]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "warning: mu_eff*eps = 0.25 < 1: below the low-density baseline"]
        assert "cli.py" not in err

    def test_summary_round_trips_to_config(self, tmp_path):
        cfg = tmp_path / "circ.cfg"
        cfg.write_text(CIRCLING_CONFIG)
        out = tmp_path / "circ"
        assert main(["circling", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "circ_summary.json").read_text())
        resolved = validate(config_to_text(summary["config"]), "circling")
        assert resolved == summary["config"]

    @pytest.mark.parametrize("kind", list(EXPERIMENTS))
    def test_summary_config_is_the_resolved_schema(self, tmp_path, kind):
        # every schema key, defaults resolved; optional keys only when given
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CONFIGS[kind])
        assert main([kind, "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        given = {line.split("=")[0].strip()
                 for line in BASE_CONFIGS[kind].splitlines() if "=" in line}
        assert set(summary["config"]) == {"kind"} | {
            key for key, spec in EXPERIMENTS[kind].keys.items()
            if spec.default is not None or key in given}
        assert summary["config"] == validate(BASE_CONFIGS[kind], kind)

    @pytest.mark.parametrize("kind,text", [("msd", MSD_CONFIG),
                                           ("scaling-study", SCALING_CONFIG)],
                             ids=["msd", "scaling-study"])
    def test_byte_identical_reruns_and_workers(self, tmp_path, kind, text):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(text)
        blobs = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "3")):
            # one prefix name in three directories: the summary names its
            # CSV without the directory, so the bytes match as written
            (tmp_path / tag).mkdir()
            out = tmp_path / tag / "run"
            code = main([kind, "--config", str(cfg), "--out", str(out),
                         "--workers", workers])
            assert code == 0
            files = sorted((tmp_path / tag).glob("run_*"))
            assert len(files) == 2  # the CSV and the summary
            blobs.append([f.read_bytes() for f in files])
        assert blobs[0] == blobs[1] == blobs[2]

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(eps=st.floats(1e-3, 2e-2), ratio=st.floats(0.3, 0.9),
           mu=st.floats(0.2, 2.0), b=st.floats(0.5, 3.0),
           eta=st.floats(1.0, 2.0), t=st.floats(0.2, 5.0),
           n_replicas=st.integers(2, 5), seed=st.integers(0, 2 ** 32))
    def test_random_scaling_study_same_bytes_at_any_workers(
            self, eps, ratio, mu, b, eta, t, n_replicas, seed):
        text = (f"eps_list = {eps!r}, {eps * ratio!r}\nmu = {mu!r}\n"
                f"b = {b!r}\neta = {eta!r}\nt = {t!r}\n"
                f"n_replicas = {n_replicas}\nseed = {seed}\n")
        blobs = []
        with tempfile.TemporaryDirectory() as tmp:
            cfg = pathlib.Path(tmp) / "study.cfg"
            cfg.write_text(text)
            for workers in ("1", "3"):
                out = pathlib.Path(tmp) / workers / "run"
                out.parent.mkdir()
                assert main(["scaling-study", "--config", str(cfg),
                             "--out", str(out), "--workers", workers]) == 0
                files = sorted(out.parent.glob("run_*"))
                assert len(files) == 2  # the CSV and the summary
                blobs.append([f.read_bytes() for f in files])
        assert blobs[0] == blobs[1]

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(eps=st.floats(1e-3, 2e-2), mu=st.floats(0.2, 2.0),
           b=st.one_of(st.just(0.0), st.floats(0.5, 3.0)),
           eta=st.floats(1.0, 2.0), t=st.floats(0.2, 3.0),
           ratio=st.floats(0.1, 0.9), n_replicas=st.integers(2, 5),
           seed=st.integers(0, 2 ** 32))
    def test_random_msd_same_bytes_at_any_workers(
            self, eps, mu, b, eta, t, ratio, n_replicas, seed):
        text = (f"eps = {eps!r}\nmu = {mu!r}\nb = {b!r}\neta = {eta!r}\n"
                f"t_grid = {t * ratio!r}, {t!r}\n"
                f"n_replicas = {n_replicas}\nseed = {seed}\n")
        blobs = []
        with tempfile.TemporaryDirectory() as tmp:
            cfg = pathlib.Path(tmp) / "msd.cfg"
            cfg.write_text(text)
            for workers in ("1", "3"):
                out = pathlib.Path(tmp) / workers / "run"
                out.parent.mkdir()
                assert main(["msd", "--config", str(cfg), "--out", str(out),
                             "--workers", workers]) == 0
                files = sorted(out.parent.glob("run_*"))
                assert len(files) == 2  # the CSV and the summary
                blobs.append([f.read_bytes() for f in files])
        assert blobs[0] == blobs[1]

    def test_operator_sweep(self, tmp_path):
        cfg = tmp_path / "ops.cfg"
        cfg.write_text(SWEEP_CONFIG)
        out = tmp_path / "ops"
        assert main(["operator-sweep", "--config", str(cfg),
                     "--out", str(out)]) == 0
        lines = (tmp_path / "ops_dsweep.csv").read_text().splitlines()
        assert lines[0] == "B,T,D_direct,D_markovian_term,D_memory_sum,series_converged"
        assert len(lines) == 4  # header + B in {0, 1, 2}
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(0.375, abs=1e-12)
        assert first[5] == "1"
        summary = json.loads((tmp_path / "ops_summary.json").read_text())
        assert summary["results"]["b_star"] == pytest.approx(8.1654, abs=1e-3)

    def test_quadrature_order_has_no_effect(self, tmp_path):
        # the key is still accepted, but the moments are exact
        csvs = []
        for order in (32, 256):
            cfg = tmp_path / f"q{order}.cfg"
            cfg.write_text(SWEEP_CONFIG + f"quadrature_order = {order}\n")
            out = tmp_path / f"q{order}"
            assert main(["operator-sweep", "--config", str(cfg),
                         "--out", str(out)]) == 0
            summary = json.loads((tmp_path / f"q{order}_summary.json").read_text())
            assert summary["config"]["quadrature_order"] == order
            assert summary["outputs"] == [f"q{order}_dsweep.csv"]
            csvs.append((tmp_path / f"q{order}_dsweep.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_kinetic_run(self, tmp_path):
        cfg = tmp_path / "kin.cfg"
        cfg.write_text(KINETIC_CONFIG)
        out = tmp_path / "kin"
        assert main(["kinetic", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (tmp_path / "kin_diagnostics.csv").read_text().splitlines()
        assert lines[0] == "t,mass,dist_to_avg,dist_to_heat"
        summary = json.loads((tmp_path / "kin_summary.json").read_text())
        assert summary["results"]["mass_drift"] == 0.0

    def test_kinetic_run_at_zero_field_same_bytes(self, tmp_path):
        # B = 0 has no memory term; the run is accepted and repeatable
        cfg = tmp_path / "kin.cfg"
        cfg.write_text(with_key(KINETIC_CONFIG, "b", "0"))
        blobs = []
        for tag in ("a", "b"):
            (tmp_path / tag).mkdir()
            out = tmp_path / tag / "kin"
            assert main(["kinetic", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append([f.read_bytes()
                          for f in sorted((tmp_path / tag).glob("kin_*"))])
        assert len(blobs[0]) == 2 and blobs[0] == blobs[1]
        summary = json.loads((tmp_path / "a" / "kin_summary.json").read_text())
        assert summary["config"]["b"] == 0.0
        assert summary["results"]["mass_drift"] == 0.0

    @pytest.mark.parametrize("kind,text", [("kinetic", KINETIC_CONFIG),
                                           ("hilbert", HILBERT_CONFIG)],
                             ids=["kinetic", "hilbert"])
    def test_rho_mode_beyond_n_x_exits_2(self, tmp_path, capsys, kind, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(with_key(text, "rho_mode", "2"))
        assert main([kind, "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert "'rho_mode' must be at most 'n_x'" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []
        # |rho_mode| = n_x is in range, and without a density wave the mode
        # is not used
        validate(with_key(text, "rho_mode", "-1"), kind)
        validate(with_key(with_key(text, "rho_mode", "2"), "rho_amplitude",
                          "0"), kind)

    @pytest.mark.parametrize("kind,text", [("kinetic", KINETIC_CONFIG),
                                           ("hilbert", HILBERT_CONFIG)],
                             ids=["kinetic", "hilbert"])
    def test_n_x_only_bounds_the_mode(self, tmp_path, kind, text):
        # n_x bounds |rho_mode| and sizes nothing: a field carries only its
        # datum's modes, so n_x = 10**6 writes what n_x = 1 writes
        outputs = []
        for n_x in (1, 10 ** 6):
            cfg = tmp_path / f"{n_x}.cfg"
            cfg.write_text(with_key(with_key(text, "rho_mode", "1"), "n_x", n_x))
            (tmp_path / str(n_x)).mkdir()
            out = tmp_path / str(n_x) / "run"
            assert main([kind, "--config", str(cfg), "--out", str(out)]) == 0
            blobs = {f.name: f.read_bytes() for f in out.parent.glob("run_*")}
            summary = json.loads(blobs.pop("run_summary.json"))
            assert summary["config"].pop("n_x") == n_x
            outputs.append((blobs, summary))
        assert len(outputs[0][0]) == 1  # the CSV
        assert outputs[0] == outputs[1]

    def test_green_kubo_run(self, tmp_path):
        cfg = tmp_path / "gk.cfg"
        cfg.write_text(GREEN_KUBO_CONFIG)
        out = tmp_path / "gk"
        assert main(["green-kubo", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "gk_summary.json").read_text())
        for key in ("D_mc", "D_mc_se", "circling_frac"):
            assert key in summary["results"]
        lines = (tmp_path / "gk_vacf.csv").read_text().splitlines()
        assert lines[0] == "t,vacf,vacf_se"
        assert float(lines[1].split(",")[1]) == 1.0

    def test_hilbert_run(self, tmp_path):
        cfg = tmp_path / "hb.cfg"
        cfg.write_text(HILBERT_CONFIG)
        out = tmp_path / "hb"
        assert main(["hilbert", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (tmp_path / "hb_hilbert.csv").read_text().splitlines()
        assert lines[0] == "eta,dist_heat,dist_hilbert1"
        summary = json.loads((tmp_path / "hb_summary.json").read_text())
        assert summary["results"]["monotone"] is True

    def test_scaling_study_run(self, tmp_path):
        cfg = tmp_path / "sc.cfg"
        cfg.write_text("eps_list = 4e-3, 2e-3\nmu = 1\nb = 1\nt = 0.5\n"
                       "n_replicas = 40\nseed = 2\neta = 2\n")
        out = tmp_path / "sc"
        assert main(["scaling-study", "--config", str(cfg),
                     "--out", str(out)]) == 0
        lines = (tmp_path / "sc_scaling.csv").read_text().splitlines()
        assert lines[0].split(",") == [
            "eps", "eta", "p_recoll", "p_recoll_se", "p_interf",
            "p_interf_se", "p_daisy", "p_daisy_se", "p_circ", "p_circ_se",
            "exponent_fit"]
        assert len(lines) == 3

    def test_seventeen_digit_floats(self, tmp_path):
        from maglorentz import operators as ops

        cfg = tmp_path / "ops.cfg"
        cfg.write_text("mu = 1.0\nb_max = 1.0\nb_step = 1.0\nm_modes = 16\n")
        out = tmp_path / "fmt"
        assert main(["operator-sweep", "--config", str(cfg),
                     "--out", str(out)]) == 0
        row = (tmp_path / "fmt_dsweep.csv").read_text().splitlines()[2]
        d_printed = row.split(",")[2]
        # 17 significant digits reproduce the binary double exactly
        exact = ops.diffusion_coefficient(
            ops.build_LG(1.0, 2 * math.pi, 16))
        assert float(d_printed) == exact
