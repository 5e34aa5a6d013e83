import ast
import importlib
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from mfbcs import classical, cli, dynamics, fock, model, verification
from mfbcs.cli import TRAJECTORY_HEADER, ResultTable, parse_config, run
from mfbcs.errors import CapacityError, ConfigError, NumericalAbortError
from mfbcs.flow import mixture_flow
from mfbcs.states import OnSiteState


def test_parse_minimal_defaults():
    cfg = parse_config("command: flow\ngamma: 2\n")
    assert cfg.command == "flow"
    assert cfg.params.gamma == 2.0
    assert cfg.params.mu == 0.0
    assert len(cfg.times) == 11 and cfg.times[-1] == 1.0
    assert all(type(t) is float for t in cfg.times)  # plain floats dump and digest cleanly
    assert cfg.seed == 0


@pytest.mark.parametrize("key", ["dt: 1.0e-3", "method: adaptive", "tolerance: 1.0e-9"])
def test_parse_rejects_removed_flow_keys(key):
    # the flow is evaluated in closed form; integrator settings are unknown keys
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(f"command: flow\n{key}\n")


def test_parse_rejects_removed_phases_key():
    # no command read the equilibrium phase-average resolution
    with pytest.raises(ConfigError, match="config field 'phases': unknown key"):
        parse_config("command: gap\nphases: 8\n")
    assert not hasattr(parse_config("command: gap\n"), "phases")


def _readme_config_block():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)


def test_readme_config_block_matches_parser():
    block = _readme_config_block()
    cfg = parse_config(block)
    assert cfg.command == "converge"
    assert set(yaml.safe_load(block)) == cli._TOP_KEYS


def test_readme_layout_names_resolve():
    # every code name the Layout table cites in parentheses, such as
    # (`spectrum`), is an attribute of its module or of one of its classes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    layout = readme.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `mfbcs\.(\w+)` +\|(.*)\|$", layout, re.M)
    assert len(rows) == 9
    cited, missing = 0, []
    for module_name, contents in rows:
        module = importlib.import_module(f"mfbcs.{module_name}")
        classes = [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__]
        # formulas in backticks, such as `h0 - gamma (c P+ + cbar P)`, are no names
        text = re.sub(r"`[^`]*`", lambda m: "" if " " in m[0] else m[0], contents)
        for group in re.findall(r"\(([^()]*)\)", text):
            for name in re.findall(r"`([A-Za-z_][\w.]*)`", group):
                cited += 1
                owners = [module, *classes] if "." not in name else [module]
                if not any(_resolves(owner, name) for owner in owners):
                    missing.append(f"{module_name}: {name}")
    assert cited >= 10 and not missing


def _resolves(owner, dotted):
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_c_and_python_yaml_loaders_agree(monkeypatch):
    if yaml.__with_libyaml__:
        assert cli._YAML_LOADER is yaml.CSafeLoader
    documents = [
        _readme_config_block(),
        "command: converge\ngamma: 1.96\nmu: 0.005\nsites: [2, 3, 4, 5]\n"
        "initial: {kind: random, seed: 376383645}\n"
        "times: {start: 0.0, stop: 1.05, step: 0.1}\nthreads: 1\n",
        "command: simulate\ngamma: 2.0\nsites: [5]\n"
        "initial: {kind: pair, angle: 0.7, phase: -1.5}\n"
        "times: {start: 0.0, stop: 10.0, step: 0.05}\n",
        "command: flow\ngamma: 2.0\nmixture:\n"
        "  - {weight: 0.3, state: {kind: pair, angle: 0.39269908}}\n"
        "  - {weight: 0.7, state: {kind: gibbs, c: [0.2, -0.1]}}\n"
        "times: {start: 0.0, stop: 10.0, step: 0.25}\n",
    ]
    malformed = "command: flow\ngamma: 2.0\nsites: [2, 3\n"
    parsed, errors = [], []
    for loader in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        monkeypatch.setattr(cli, "_YAML_LOADER", loader)
        parsed.append([parse_config(doc) for doc in documents])
        with pytest.raises(ConfigError) as exc:
            parse_config(malformed)
        errors.append(re.match(r"config parse error at line \d+, column \d+", str(exc.value)))
    assert parsed[0] == parsed[1]
    assert errors[0] and errors[1] and errors[0].group(0) == errors[1].group(0)


def test_parse_rejects_negative_gamma():
    with pytest.raises(ConfigError, match="gamma >= 0"):
        parse_config("command: flow\ngamma: -2\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="delta"):
        parse_config("command: flow\ndelta: 2\n")
    with pytest.raises(ConfigError, match="times.pace"):
        parse_config("command: flow\ntimes: {start: 0, stop: 1, pace: 2}\n")


def test_parse_reports_yaml_position():
    with pytest.raises(ConfigError, match="line"):
        parse_config("command: flow\ngamma: [unclosed\n")


def test_parse_times_and_sites():
    cfg = parse_config(
        "command: converge\ntimes: {start: 0, stop: 1, step: 0.5}\nsites: [2, 3]\n"
    )
    assert cfg.times == (0.0, 0.5, 1.0)
    assert cfg.sites == (2, 3)
    limit = dynamics.PRODUCT_SITE_LIMIT
    assert parse_config(f"command: converge\nsites: [9, {limit}]\n").sites == (9, limit)
    for bad in (0, limit + 1):
        with pytest.raises(ConfigError, match="sites"):
            parse_config(f"command: converge\nsites: [{bad}]\n")
    with pytest.raises(ConfigError, match="step"):
        parse_config("command: flow\ntimes: {step: -1}\n")


def test_parse_command_conflict():
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config("command: gap\n", command="flow")
    cfg = parse_config("gamma: 1\n", command="gap")
    assert cfg.command == "gap"
    with pytest.raises(ConfigError, match="command"):
        parse_config("gamma: 1\n")


def test_parse_mixture_and_states():
    text = """
command: flow
mixture:
  - {weight: 0.5, state: {kind: pair, angle: 0.3}}
  - {weight: 0.5, state: {kind: random, seed: 4}}
"""
    cfg = parse_config(text)
    assert len(cfg.mixture) == 2
    with pytest.raises(ConfigError, match="kind"):
        parse_config("command: flow\ninitial: {kind: banana}\n")


def _flow_config(out):
    return parse_config(
        f"""
command: flow
gamma: 2.0
initial: {{kind: pair, angle: {math.pi / 6.0}}}
times: {{start: 0, stop: 1, step: 0.5}}
out: {out}
"""
    )


def test_flow_golden_header_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run(_flow_config(out1))
    run(_flow_config(out2))
    text1 = out1.read_text()
    assert text1.splitlines()[0] == TRAJECTORY_HEADER
    assert text1 == out2.read_text()
    meta1 = (tmp_path / "a.csv.meta.yaml").read_text()
    assert meta1 == (tmp_path / "b.csv.meta.yaml").read_text()
    assert "config_digest" in meta1
    # gamma=0 flow: z column equals the closed-form rotation
    cfg = parse_config(
        f"command: flow\nmu: 0.4\ninitial: {{kind: pair, angle: 0.5}}\n"
        f"times: {{start: 0, stop: 1, step: 1.0}}\nout: {tmp_path/'c.csv'}\n"
    )
    run(cfg)
    rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
    z0 = complex(*[float(v) for v in rows[0].split(",")[4:6]])
    z1 = complex(*[float(v) for v in rows[1].split(",")[4:6]])
    assert abs(z1 - z0 * np.exp(2j * 0.4)) < 1e-8


def test_flow_golden_row_vacuum(tmp_path):
    # vacuum at zero couplings: every column exactly 0.0 (golden literal)
    out = tmp_path / "vac.csv"
    cfg = parse_config(
        f"command: flow\ninitial: {{kind: vacuum}}\n"
        f"times: {{start: 0, stop: 1, step: 1.0}}\nout: {out}\n"
    )
    run(cfg)
    lines = out.read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert lines[1] == "0.0," + ",".join(["0.0"] * 11)


def test_converge_command(tmp_path):
    out = tmp_path / "conv.csv"
    cfg = parse_config(
        f"""
command: converge
gamma: 2.0
sites: [2, 3]
times: {{start: 1.0, stop: 1.0, step: 1.0}}
out: {out}
threads: 2
"""
    )
    table = run(cfg)
    assert table.header == ["N", "t", "observable", "finite", "flow", "deviation"]
    devs = {}
    for n, dev in zip(table.columns[0], table.columns[5]):
        devs[n] = max(devs.get(n, 0.0), dev)
    assert devs[3] < devs[2]
    # threads only fans out scan; converge rows are the same either way
    serial = run(parse_config(
        f"""
command: converge
gamma: 2.0
sites: [2, 3]
times: {{start: 1.0, stop: 1.0, step: 1.0}}
out: {out}
threads: 1
"""
    ))
    assert all(np.array_equal(a, b) for a, b in zip(serial.columns, table.columns))


def test_simulate_command(tmp_path):
    out = tmp_path / "sim.csv"
    cfg = parse_config(
        f"command: simulate\ngamma: 1.0\nsites: [2]\n"
        f"times: {{start: 0, stop: 0.4, step: 0.2}}\nout: {out}\n"
    )
    table = run(cfg)
    assert table.metadata["backend"] == "closed-form"
    assert len(table.columns[0]) == 3


def test_simulate_six_sites_krylov(tmp_path):
    out = tmp_path / "six.csv"
    cfg = parse_config(
        f"command: simulate\ngamma: 2.0\nsites: [6]\n"
        f"initial: {{kind: pair, angle: 0.5}}\n"
        f"times: {{start: 0, stop: 0.1, step: 0.1}}\nout: {out}\n"
    )
    table = run(cfg)
    assert table.metadata["backend"] == "closed-form"
    assert abs(table.columns[4][0] - np.cos(0.5) * np.sin(0.5)) < 1e-12


def test_gap_and_scan_commands(tmp_path):
    gap_cfg = parse_config(f"command: gap\ngamma: 8.0\nout: {tmp_path/'g.csv'}\n")
    table = run(gap_cfg)
    assert abs(table.columns[0][0] - 0.47875201203863437) < 1e-8
    scan_cfg = parse_config(
        f"""
command: scan
beta: 1.0
scan:
  gamma: [2.0, 8.0]
  mu: {{start: 0.0, stop: 0.5, num: 2}}
out: {tmp_path/'s.csv'}
"""
    )
    table = run(scan_cfg)
    assert len(table.columns[0]) == 4
    mu, gamma, superconducting = table.columns[0], table.columns[3], table.columns[7]
    by_point = dict(zip(zip(mu, gamma), superconducting))
    assert not by_point[(0.0, 2.0)]
    assert by_point[(0.0, 8.0)]


def test_rotor_command(tmp_path):
    cfg = parse_config(
        f"command: rotor\ngamma: 1.5\nstates: 2\n"
        f"times: {{start: 0, stop: 2, step: 1.0}}\nout: {tmp_path/'r.csv'}\n"
    )
    table = run(cfg)
    assert max(table.columns[2]) < 1e-6


def test_liouville_command(tmp_path):
    cfg = parse_config(
        f"command: liouville\ngamma: 1.0\nmu: 0.3\nstates: 1\n"
        f"times: {{start: 0.0, stop: 0.5, step: 0.5}}\nout: {tmp_path/'l.csv'}\n"
    )
    table = run(cfg)
    assert max(table.columns[5]) < 1e-5


def test_liouville_table_rows_follow_state_time_observable(tmp_path):
    cfg = parse_config(
        "command: liouville\ngamma: 1.0\nmu: 0.3\nstates: 2\nseed: 7\n"
        "times: {start: -0.5, stop: 0.5, step: 0.5}\n"
    )
    table = run(replace(cfg, out=str(tmp_path / "l.csv")))
    assert table.header == ["state", "t", "observable", "lhs", "rhs", "residual"]
    rng = np.random.default_rng(7)
    suite = classical.polynomial_suite()
    rows = []
    for k in range(2):
        rho0 = OnSiteState.random_even(rng)
        for t in cfg.times:
            res = classical.liouville_residuals(cfg.params, suite, rho0, t)
            rows += [(k, t, n, res[n].lhs, res[n].rhs, res[n].residual) for n in sorted(res)]
    expected = list(zip(*rows))
    for col, ref in zip(table.columns[:3], expected[:3]):
        assert col.tolist() == list(ref)
    for col, ref in zip(table.columns[3:], expected[3:]):
        assert np.max(np.abs(col - np.array(ref))) <= 1e-12


def test_main_rejects_removed_fd_step_key(tmp_path, capsys):
    # both Liouville sides are exact; the finite-difference step is an unknown key
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("gamma: 1.0\nfd_step: 1.0e-4\n")
    out = tmp_path / "out.csv"
    assert cli.main(["liouville", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'fd_step': unknown key")
    assert "Traceback" not in err
    assert not out.exists()
    assert not hasattr(parse_config("command: liouville\n"), "fd_step")


def test_main_exit_codes(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("gamma: -1\n")
    assert cli.main(["gap", "--config", str(bad)]) == 1

    # a 6-site mixed product state runs in closed form, past the dense limit
    big = tmp_path / "big.yaml"
    big.write_text("sites: [6]\ninitial: {kind: mixed}\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--config", str(big)]) == 0

    assert cli.main(["gap", "--config", str(tmp_path / "missing.yaml")]) == 1

    ok = tmp_path / "ok.yaml"
    ok.write_text("gamma: 2.0\n")
    assert cli.main(["gap", "--config", str(ok), "--out", str(tmp_path / "o.csv")]) == 0

    # a capacity error (a dense build past 5 sites) maps to exit code 2
    def beyond_capacity(config):
        raise CapacityError("n_sites=6 exceeds the dense limit 5")

    monkeypatch.setattr(cli, "run", beyond_capacity)
    assert cli.main(["simulate", "--config", str(big)]) == 2


def test_verify_exit_code_wiring(tmp_path, monkeypatch):
    fail = verification.CheckResult(
        name="stub", passed=False, max_violation=1.0, threshold=0.0, runtime_s=0.0
    )
    monkeypatch.setattr(verification, "run_all", lambda seed: [fail])
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "--out", str(tmp_path / "v.csv")]) == 4
    ok = verification.CheckResult(
        name="stub", passed=True, max_violation=0.0, threshold=0.0, runtime_s=0.0
    )
    monkeypatch.setattr(verification, "run_all", lambda seed: [ok])
    assert cli.main(["verify", "--out", str(tmp_path / "v.csv")]) == 0


def test_check_line_prints_milliseconds():
    # most rows take well under 0.1 s, which a seconds field would print as 0.0s
    result = verification.CheckResult(
        name="stub", passed=True, max_violation=0.0, threshold=1e-8, runtime_s=0.01234
    )
    assert result.line() == "[PASS] stub: violation 0.000e+00 (threshold 1.0e-08, 12.3 ms)"


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("command: gap\ngamma: 2.0\n")
    out = tmp_path / "out.csv"
    assert cli.main(["gap", "--config", str(cfg_path), "--out", str(out), "--seed", "7"]) == 0
    meta = (tmp_path / "out.csv.meta.yaml").read_text()
    assert "seed: 7" in meta


@pytest.mark.parametrize("command", cli._COMMANDS)
@pytest.mark.parametrize(
    "text, args, message",
    [
        ("seed: -1\n", [], "config field 'seed': a seed must be >= 0, got -1"),
        ("", ["--seed", "-1"], "config field 'seed': a seed must be >= 0, got -1"),
        ("initial: {kind: random, seed: -3}\n", [],
         "config field 'initial.seed': a seed must be >= 0, got -3"),
        ("mixture:\n  - {weight: 1.0, state: {kind: random, seed: -2}}\n", [],
         "config field 'mixture[0].state.seed': a seed must be >= 0, got -2"),
        ("", ["--threads", "0"], "config field 'threads': must be >= 1"),
    ],
    ids=["seed-key", "seed-flag", "initial-seed", "mixture-seed", "threads-flag"],
)
def test_main_rejects_negative_seeds_and_bad_overrides(
    tmp_path, capsys, command, text, args, message
):
    # each ended in np.random.default_rng's ValueError, or ran with 0 threads
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(cfg), "--out", str(out), *args]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_main_command_from_config_and_usage_errors_exit_1(tmp_path, capsys):
    # the command may come from the config alone; usage errors exit 1, as
    # config errors do (2 is capacity exceeded)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("command: gap\n")
    out = tmp_path / "out.csv"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    assert "command: gap" in (tmp_path / "out.csv.meta.yaml").read_text()
    assert cli.main(["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: config field 'command': missing (give it in the config or on the CLI)\n"
    for argv in (["gap", "--seed", "x"], ["banana"], ["gap", "--no-such-flag"]):
        assert cli.main(argv) == 1
        assert "mfbcs: error: " in capsys.readouterr().err
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: mfbcs")


def test_cli_overrides_replace_the_document_values(tmp_path):
    # the flags are checked as the keys are, and win over them
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("gamma: 2.0\nseed: -1\nthreads: 0\nout: elsewhere.csv\n")
    out = tmp_path / "out.csv"
    argv = ["gap", "--config", str(cfg), "--out", str(out), "--seed", "3", "--threads", "2"]
    assert cli.main(argv) == 0
    assert "seed: 3" in (tmp_path / "out.csv.meta.yaml").read_text()
    config = parse_config(cfg.read_text(), "gap", {"seed": 3, "threads": 2, "out": str(out)})
    assert (config.seed, config.threads, config.out) == (3, 2, str(out))


def test_scan_default_grid_sidecar(tmp_path):
    out = tmp_path / "scan.csv"
    table = run(parse_config(f"command: scan\nout: {out}\n"))
    assert len(table.columns[0]) == 9
    meta = yaml.safe_load((tmp_path / "scan.csv.meta.yaml").read_text())
    assert meta["grid"] == {"gamma": [float(g) for g in range(9)]}


def test_config_digest_covers_whole_config(tmp_path):
    def digest(text):
        return cli._config_digest(parse_config(text))

    pair = digest("command: flow\ninitial: {kind: pair}\n")
    assert pair != digest("command: flow\ninitial: {kind: vacuum}\n")
    assert pair != digest(
        "command: flow\nmixture: [{weight: 1.0, state: {kind: pair}}]\n"
    )
    assert digest("command: scan\nscan: {gamma: [1.0, 2.0]}\n") != digest(
        "command: scan\nscan: {gamma: [1.0, 3.0]}\n"
    )
    # where the output goes is not part of what was computed
    assert pair == digest(f"command: flow\ninitial: {{kind: pair}}\nout: {tmp_path}/x.csv\n")


def test_result_table_formats_numpy_bool():
    table = ResultTable(["a", "b"], [[np.bool_(True)], [np.bool_(False)]], {})
    assert table.to_csv() == "a,b\ntrue,false\n"


def _reference_format(value) -> str:
    """The per-cell formatter tables were written with before they became columnar."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise NumericalAbortError(f"non-finite value {v!r} in output table")
        return repr(v)
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _reference_csv(header, columns) -> str:
    rows = [",".join(_reference_format(v) for v in row) for row in zip(*columns)]
    return "\n".join([",".join(header), *rows]) + "\n"


@pytest.mark.parametrize("block_rows", [3, cli.CSV_BLOCK_ROWS])
def test_result_table_matches_per_cell_reference(monkeypatch, block_rows):
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0, 1e-7, 123456789.0]
    floats = special + list(rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40))
    n = len(floats)
    columns = {
        "float": floats,
        "npfloat": np.array(floats[::-1]),
        "int": [int(k) for k in rng.integers(-(10**12), 10**12, n)],
        "npint": np.arange(n, dtype=np.int64) - 7,
        "bool": [bool(k % 3) for k in range(n)],
        "npbool": np.arange(n) % 2 == 0,
        "mixedbool": [True if k % 2 else np.bool_(False) for k in range(n)],
        "text": [("plain", "a,b", 'say "hi"', "two\nlines", "", "x,\"y\"")[k % 6] for k in range(n)],
    }
    header = list(columns)
    table = ResultTable(header, list(columns.values()), {})
    assert table.to_csv() == _reference_csv(header, columns.values())
    # one row, and no rows at all
    first = [col[:1] for col in columns.values()]
    assert ResultTable(header, first, {}).to_csv() == _reference_csv(header, first)
    empty = [np.array(col[:0]) for col in columns.values()]
    assert ResultTable(header, empty, {}).to_csv() == ",".join(header) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 4, 9])
def test_result_table_rejects_non_finite_floats(bad, at):
    column = np.linspace(0.0, 1.0, 10)
    column[at] = bad
    with pytest.raises(NumericalAbortError, match="non-finite value"):
        ResultTable(["t", "x"], [np.arange(10), column], {})


def test_result_table_rejects_ragged_columns():
    with pytest.raises(ValueError, match="column count"):
        ResultTable(["a", "b"], [[1.0]], {})
    with pytest.raises(ValueError, match="length"):
        ResultTable(["a", "b"], [[1.0], [1.0, 2.0]], {})


def test_main_output_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "ok.yaml"
    cfg.write_text("gamma: 2.0\n")
    assert cli.main(["gap", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "command, text",
    [
        ("gap", "gamma: .nan\n"),
        ("gap", "mu: .nan\ngamma: 2.0\n"),
        ("flow", "gamma: .nan\n"),
        ("simulate", "mu: .nan\nsites: [2]\n"),
        ("gap", "gamma: 2.0\nbeta: .inf\n"),
        ("flow", "times: {start: 0.0, stop: .inf, step: 0.1}\n"),
        ("scan", "scan: {gamma: [.nan]}\n"),
        (
            "flow",
            "mixture:\n  - {weight: .nan, state: {kind: vacuum}}\n"
            "  - {weight: 1.0, state: {kind: mixed}}\n",
        ),
        ("gap", "gamma: 1" + "0" * 400 + "\n"),
    ],
    ids=[
        "gap-gamma-nan", "gap-mu-nan", "flow-gamma-nan", "simulate-mu-nan",
        "gap-beta-inf", "flow-stop-inf", "scan-gamma-nan",
        "flow-weight-nan", "gap-gamma-int-overflow",
    ],
)
def test_main_rejects_non_finite_numbers(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field '") and "finite" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "value, hinted", [("8e0", True), ("8.0e0", True), ("1e-11", True), ("nan", False)]
)
def test_main_rejects_dotless_float_with_hint(tmp_path, capsys, value, hinted):
    # YAML 1.1 reads these as text; they stay refused, and a decimal with an
    # exponent is told the form that parses
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"gamma: {value}\n")
    out = tmp_path / "out.csv"
    assert cli.main(["gap", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    message = f"error: config field 'gamma': expected a number, got '{value}'"
    hint = "; write the number with a dot and a signed exponent, for example 8.0e+0"
    assert err == message + (hint if hinted else "") + "\n"
    assert not out.exists()
    assert parse_config("command: gap\ngamma: 8.0e+0\n").params.gamma == 8.0


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_closed_form_commands_at_ten_thousand_sites(tmp_path, command):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "gamma: 2.0\nmu: 0.1\nsites: [10000]\ninitial: {kind: random, seed: 3}\n"
        "times: {start: -1.0, stop: 2.0, step: 0.5}\n"
    )
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert len(rows) == (7 if command == "simulate" else 5 * 7)
    numeric = [j for j, name in enumerate(header) if name != "observable"]
    assert np.isfinite([float(row[j]) for row in rows for j in numeric]).all()
    meta = yaml.safe_load((tmp_path / "out.csv.meta.yaml").read_text())
    assert meta["backend"] == "closed-form"


@pytest.mark.parametrize(
    "command, text",
    [
        ("simulate", f"sites: [{10**12 + 1}]\n"),
        ("converge", f"sites: [2, {10**400}]\n"),
        ("flow", "times: {start: -1.0e+308, stop: 1.0e+308, step: 1.0}\n"),
        ("simulate", "sites: [2]\ntimes: {start: 0.0, stop: 1.0e+12, step: 1.0}\n"),
        ("converge", "times: {start: 0.0, stop: 1000000.0, step: 1.0}\n"),
        ("scan", "scan: {gamma: {start: 0.0, stop: 1.0, num: 10000000}}\n"),
        ("scan", "scan: {gamma: {start: 0.0, stop: 1.0, num: 2000}, "
                 "mu: {start: 0.0, stop: 1.0, num: 1000}}\n"),
        ("converge", "sites: [2, 3]\ntimes: {start: 0.0, stop: 100000.0, step: 1.0}\n"),
        ("converge", "sites: [2]\ntimes: {start: 0.0, stop: 200000.0, step: 1.0}\n"),
        ("liouville", "states: 1000000000\n"),
        ("liouville", "states: 15152\n"),
        ("rotor", "states: 1000000000\n"),
        ("rotor", "states: 1000001\ntimes: {start: 0.0, stop: 0.0, step: 1.0}\n"),
    ],
    ids=[
        "sites-past-ceiling", "sites-past-float-range", "times-overflow",
        "times-1e12-points", "times-one-past-cap", "scan-num-past-cap",
        "scan-product-past-cap", "converge-rows-past-cap", "converge-rows-one-time-past-cap",
        "liouville-1e9-states", "liouville-rows-past-cap", "rotor-1e9-states",
        "rotor-rows-one-past-cap",
    ],
)
def test_main_rejects_oversized_runs(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field '")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("mixture:\n  - {weight: 0.6, state: {kind: pair}}\n", "sum to 0.6"),
        ("mixture:\n  - {weight: -0.5, state: {kind: pair}}\n"
         "  - {weight: 1.5, state: {kind: vacuum}}\n", "nonnegative"),
    ],
    ids=["weights-sum-0.6", "negative-weight"],
)
@pytest.mark.parametrize("command", ["flow", "simulate", "converge"])
def test_main_rejects_bad_mixture_weights(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'mixture': ")
    assert message in err and len(err.splitlines()) == 1
    assert not out.exists()


_EXTREME = "states: 1\ntimes: {start: 0.0, stop: 0.5, step: 0.5}\n"
_NUMERIC_COMMANDS = ["flow", "simulate", "converge", "liouville", "rotor", "gap", "scan"]


@pytest.mark.parametrize("command", _NUMERIC_COMMANDS)
def test_main_extreme_couplings_exit_3(tmp_path, capsys, monkeypatch, command):
    # finite couplings whose precession frequency overflows; the parser
    # bounds them, so they reach the numerics through a RunConfig built directly
    parse = cli.parse_config

    def extreme(text, command=None, overrides=None):
        return replace(
            parse(text, command, overrides),
            params=model.ModelParams(mu=-1.0e308, gamma=1.0e308),
            scan=(("gamma", (1.0e308,)),),
        )

    monkeypatch.setattr(cli, "parse_config", extreme)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(_EXTREME)
    out = tmp_path / "out.csv"
    with np.errstate(all="ignore"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", _NUMERIC_COMMANDS)
def test_main_overflowing_couplings_exit_1(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("gamma: 1.0e+308\nmu: -1.0e+308\nscan: {gamma: [1.0e+308]}\n" + _EXTREME)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'gamma': magnitude must be at most 1e+150")
    assert not out.exists()


@pytest.mark.parametrize("key", ["mu", "h", "lambda", "gamma", "beta"])
def test_parse_bounds_couplings_and_scan_values(key):
    assert parse_config(f"command: scan\n{key}: 1.0e+150\nscan: {{{key}: [1.0e+150]}}\n")
    for value in ("2.0e+150", "-2.0e+150") if key in ("mu", "h") else ("2.0e+150",):
        with pytest.raises(ConfigError, match=f"^config field '{key}': magnitude"):
            parse_config(f"command: gap\n{key}: {value}\n")
        with pytest.raises(ConfigError, match=f"^config field 'scan.{key}': magnitudes"):
            parse_config(f"command: scan\nscan: {{{key}: [1.0, {value}]}}\n")
    with pytest.raises(ConfigError, match=f"^config field 'scan.{key}': magnitudes"):
        parse_config(f"command: scan\nscan: {{{key}: {{start: 1.0, stop: 1.0e+151}}}}\n")


_MIXTURE = (
    "gamma: 2.0\nmu: 0.1\nh: 0.05\nlambda: 0.2\n"
    "times: {start: -1.0, stop: 1.0, step: 0.5}\n"
    "mixture:\n"
    "  - {weight: 0.35, state: {kind: pair, angle: 0.4, phase: 0.3}}\n"
    "  - {weight: 0.65, state: {kind: random, seed: 2}}\n"
)


def test_converge_and_simulate_evolve_the_mixture(tmp_path):
    cfg = parse_config(f"command: converge\nsites: [2, 3, 4]\nout: {tmp_path / 'c.csv'}\n"
                       + _MIXTURE)
    mix = cli._initial_mixture(cfg)
    assert len(mix.weights) == 2
    times = np.array(cfg.times)
    n_col, t_col, name_col, finite_col, flow_col, _ = run(cfg).columns
    traj = mixture_flow(cfg.params, mix, times)
    flow_series = fock.site_columns((traj.d, traj.m, traj.w, traj.z))
    ops = list(fock.SITE_OBSERVABLES.values())
    for n in (2, 3, 4):
        dense = fock.site_columns(dynamics.evolve_expectation(
            n, cfg.params, dynamics.product_state(n, mix), ops, times
        ))
        sim = run(parse_config(
            f"command: simulate\nsites: [{n}]\nout: {tmp_path / 's.csv'}\n" + _MIXTURE
        ))
        for j, name in enumerate(fock.SITE_COLUMNS):
            rows = (n_col == n) & (name_col == name)
            assert np.array_equal(t_col[rows], times)
            assert np.max(np.abs(finite_col[rows] - dense[name])) < 1e-12
            assert np.array_equal(flow_col[rows], flow_series[name])
            assert np.array_equal(sim.columns[0], times)
            assert np.max(np.abs(sim.columns[1 + j] - dense[name])) < 1e-12


def test_time_grid_cap_is_inclusive():
    cfg = parse_config("command: simulate\ntimes: {start: 0.0, stop: 999999.0, step: 1.0}\n")
    assert len(cfg.times) == cli.MAX_GRID_POINTS


@pytest.mark.parametrize(
    "command, text, rows",
    [
        # duplicate site counts write one block of rows
        ("converge", "sites: [2, 2]\ntimes: {start: 0.0, stop: 199999.0, step: 1.0}\n", 10**6),
        ("liouville", "states: 166666\ntimes: {start: 0.0, stop: 0.0, step: 1.0}\n", 999996),
        ("rotor", "states: 1000000\ntimes: {start: 0.0, stop: 0.0, step: 1.0}\n", 10**6),
    ],
    ids=["converge", "liouville", "rotor"],
)
def test_table_row_cap_is_inclusive(command, text, rows):
    cfg = parse_config(text, command=command)
    assert cli._table_rows(command, cfg.sites, cfg.n_states, len(cfg.times)) == rows


def test_cli_import_leaves_integrators_unloaded(tmp_path):
    # scipy loads where the dense side and the oracles call it, so start-up
    # and the closed-form commands run without it
    configs = {
        "random.yaml": "gamma: 2.0\nsites: [2, 7]\ninitial: {kind: random, seed: 3}\n",
        "gibbs.yaml": "gamma: 2.0\nsites: [3]\ninitial: {kind: gibbs, c: [0.3, 0.1]}\n",
        "mixture.yaml": "gamma: 2.0\nmixture:\n"
                        "  - {weight: 0.5, state: {kind: pair, angle: 0.4}}\n"
                        "  - {weight: 0.5, state: {kind: pair, angle: 1.2, phase: 1.0}}\n",
    }
    for name, text in configs.items():
        (tmp_path / name).write_text(text)
    code = """
import sys
import mfbcs.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

print(scipy_modules())
runs = [("converge", "random"), ("converge", "gibbs"), ("simulate", "random"),
        ("simulate", "gibbs"), ("flow", "mixture"), ("flow", "gibbs"),
        ("liouville", "random"), ("rotor", "random")]
print([cli.main([c, "--config", f"{k}.yaml", "--out", f"{c}-{k}.csv"]) for c, k in runs])
print(scipy_modules())
# the gap equation is in closed form: gap and scan load no scipy either
print([cli.main([c, "--config", "gibbs.yaml", "--out", f"{c}.csv"]) for c in ("gap", "scan")])
print(scipy_modules())
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        cwd=tmp_path, timeout=120, check=True,
    )
    assert proc.stdout.splitlines() == ["[]", "[0, 0, 0, 0, 0, 0, 0, 0]", "[]", "[0, 0]", "[]"]


def test_verify_leaves_integrate_optimize_special_unloaded(tmp_path):
    # both ODE oracles are numpy Taylor recurrences; only scipy.sparse loads
    code = """
import sys
import mfbcs.cli as cli
print(cli.main(["verify", "--seed", "0", "--out", "verify.csv"]))
print(sorted(m for m in ("scipy.integrate", "scipy.optimize", "scipy.special") if m in sys.modules))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        cwd=tmp_path, timeout=300, check=True,
    )
    assert proc.stdout.splitlines()[-2:] == ["0", "[]"]


def test_no_module_imports_scipy_integrate():
    # anywhere in a module, function bodies included
    src = Path(__file__).resolve().parents[1] / "src" / "mfbcs"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "scipy.integrate" or n.startswith("scipy.integrate.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _module_level_statements(body):
    """Statements run on import: class bodies and every branch except TYPE_CHECKING."""
    for node in body:
        yield node
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING"
        ):
            yield from _module_level_statements(node.orelse)
        elif isinstance(node, (ast.If, ast.For, ast.While, ast.With, ast.ClassDef)):
            yield from _module_level_statements(node.body)
            yield from _module_level_statements(getattr(node, "orelse", []))
        elif isinstance(node, ast.Try):
            for part in (node.body, node.orelse, node.finalbody, *(h.body for h in node.handlers)):
                yield from _module_level_statements(part)


def test_no_module_level_scipy_import():
    src = Path(__file__).resolve().parents[1] / "src" / "mfbcs"
    offenders = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _module_level_statements(tree.body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


_SIDECAR_CONFIGS = {
    "flow": _MIXTURE,
    "simulate": "gamma: 2.0\nsites: [2, 3]\ninitial: {kind: random, seed: 3}\n",
    "converge": "sites: [2, 1000000000]\n" + _MIXTURE,
    "gap": "gamma: 8.0\nbeta: 2.0\n",
    "scan": "scan: {gamma: [0.0, 4.0, 8.0], beta: {start: 0.5, stop: 1.0, num: 2}}\n",
    "liouville": "gamma: 2.0\nstates: 2\n" + _EXTREME,
    "rotor": "gamma: 2.0\nstates: 2\n",
    "verify": "seed: 1\n",
}


@pytest.mark.parametrize("command", sorted(_SIDECAR_CONFIGS))
def test_sidecar_bytes_match_safe_dump(tmp_path, capsys, command):
    # the sidecar is written by libyaml's emitter where PyYAML has it
    out = tmp_path / "out.csv"
    table = run(parse_config(f"command: {command}\nout: {out}\n" + _SIDECAR_CONFIGS[command]))
    expected = yaml.safe_dump(table.metadata, sort_keys=True).encode()
    assert (tmp_path / "out.csv.meta.yaml").read_bytes() == expected
