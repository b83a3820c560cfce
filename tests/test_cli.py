"""CLI contract: subcommands, exit codes, deterministic run outputs."""

import filecmp
import gc
import json
import warnings
from pathlib import Path

import pytest

from lendsim.cli import main
from lendsim.fixed import to_str
from lendsim.simulation import SimulationEngine

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_validate_ok(capsys):
    assert main(["validate", "--scenario", str(SCENARIOS / "table1.json")]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_reports_every_problem(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "arb_gap.json").read_text())
    doc["pools"][0]["asset"] = "GHOST"
    doc["pools"][0]["liquidation_threshold"] = "0.1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "GHOST" in err and "liquidation_threshold" in err


def test_validate_missing_file_is_io_error():
    assert main(["validate", "--scenario", "/nonexistent/file.json"]) == 3


def test_validate_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["validate", "--scenario", str(bad)]) == 1


def _set_agent_param(key, value):
    return lambda doc: doc["agents"][0]["params"].__setitem__(key, value)


# field -> (edit making it malformed, location the problem must name)
MALFORMED = {
    "min_action": (_set_agent_param("min_action", "abc"), "agents[0].params.min_action"),
    "iteration_cap": (_set_agent_param("iteration_cap", "x"), "agents[0].params.iteration_cap"),
    "fee_bps": (lambda doc: doc["venues"][0].__setitem__("fee_bps", "x"), "venues[0].fee_bps"),
    "horizon": (lambda doc: doc.__setitem__("horizon", "ten"), "horizon"),
    "pool_entry": (lambda doc: doc["pools"].__setitem__(0, 5), "pools[0]"),
    "window": (lambda doc: doc["agents"][0].__setitem__("window", [0]), "agents[0].window"),
}


@pytest.mark.parametrize("field", sorted(MALFORMED))
def test_validate_collects_malformed_field(field, tmp_path, capsys):
    doc = json.loads((SCENARIOS / "arb_gap.json").read_text())
    doc["agents"] = [{"id": "farm", "kind": "borrow_spiral", "endowment": {"XYZ": "1"},
                      "params": {"pool": "XYZ"}, "window": [0, 1]}]
    edit, where = MALFORMED[field]
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    reported = [line for line in err.splitlines() if line.startswith(("parse error:", "validation error:"))]
    assert any(where + ":" in line for line in reported), err


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for part in path:
            doc = doc[part]
        doc[key] = value

    return edit


# inputs that must be rejected before a run starts, never crash one:
# name -> (edit of table1.json, extra `run` arguments)
REJECTED = {
    "walk_initial_zero": (_set("price_feeds", "initial", "WETH", "0"), []),
    "walk_initial_negative": (_set("price_feeds", "initial", "WETH", "-1"), []),
    "drift_nan": (_set("price_feeds", "drift", "nan"), []),
    "volatility_inf": (_set("price_feeds", "volatility", "inf"), []),
    "endowment_negative": (_set("agents", 0, "endowment", "WETH", "-1"), []),
    "inventory_negative": (_set("venues", 1, "inventory", "WBTC", "-1"), []),
    "gas_fee_negative": (_set("gas", {"asset": "DAI", "fee": "-1"}), []),
    "fee_policy_bad_decimal": (_set("cdp", "fee_policy", {"kind": "constant", "fee": "1.2.3"}), []),
    "fee_policy_not_object": (_set("cdp", "fee_policy", "constant"), []),
    "fee_policy_unknown_kind": (_set("cdp", "fee_policy", {"kind": "pid", "fee": "0.1"}), []),
    "agent_param_list": (_set("agents", 0, "params", "pool", []), []),
    "endowment_huge_exponent": (_set("agents", 0, "endowment", "WETH", "1e5000"), []),
    "initial_cash_above_uint256": (_set("pools", 0, "initial_cash", to_str(2**256)), []),
    "use_flashloan_string": (_set("agents", 4, "params", "use_flashloan", "false"), []),
    # integer fields take JSON integers only: no truncated float, bool or numeric string
    "horizon_float": (_set("horizon", 10.7), []),
    "iteration_cap_bool": (_set("agents", 3, "params", "iteration_cap", True), []),
    "fee_bps_string": (_set("venues", 0, "fee_bps", "30"), []),
    "window_float": (_set("agents", 0, "window", [0, 1.5]), []),
    "seed_string": (_set("seed", "7"), []),
    "drift_bool": (_set("price_feeds", "drift", True), []),
    # ids are JSON strings: no null read as "None", no number read as its digits
    "agent_id_null": (_set("agents", 0, "id", None), []),
    "venue_id_number": (_set("venues", 1, "id", 7), []),  # the quote venue, which no agent names
    "steps_zero": (lambda doc: None, ["--steps", "0"]),
    "steps_negative": (lambda doc: None, ["--steps", "-3"]),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_bad_input_is_a_validation_error_for_validate_and_run(name, tmp_path, capsys):
    edit, run_args = REJECTED[name]
    doc = json.loads((SCENARIOS / "table1.json").read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    commands = [["run", "--scenario", str(path), "--out", str(tmp_path / "out"), *run_args]]
    if not run_args:
        commands.append(["validate", "--scenario", str(path)])
    for argv in commands:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert any(line.startswith("validation error: ") for line in err.splitlines()), err


def test_walk_overflow_is_a_runtime_error_for_run_and_scan(tmp_path, capsys):
    # drift is inside its validated bound, but 900 steps of it leave the float range
    doc = json.loads((SCENARIOS / "table1.json").read_text())
    doc["price_feeds"]["drift"] = "0.9"
    doc["horizon"] = 900
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path)]) == 0
    capsys.readouterr()
    for argv in (["run", "--out", str(tmp_path / "out")], ["scan", "--step", "899"]):
        assert main([argv[0], "--scenario", str(path), *argv[1:]]) == 2, argv
        err = capsys.readouterr().err
        assert err == "runtime error: walk price of WBTC leaves the float range at step 731\n", err


def runaway_scenario(tmp_path):
    # a per-step base rate of 1e20 passes validation, but compounding it for
    # 400 steps gives an index with more digits than can be rendered
    doc = json.loads((SCENARIOS / "table1.json").read_text())
    doc["pools"][0]["rate_model"]["base_rate"] = "1e20"
    doc["horizon"] = 400
    path = tmp_path / "runaway.json"
    path.write_text(json.dumps(doc))
    return path


def completed_steps(monkeypatch):
    """Count the engine's steps that return, from here on."""
    done = []
    step = SimulationEngine.step

    def counted(self, t):
        step(self, t)
        done.append(t)

    monkeypatch.setattr(SimulationEngine, "step", counted)
    return done


def test_value_too_long_to_render_is_a_runtime_error_for_run_and_scan(tmp_path, capsys):
    path = runaway_scenario(tmp_path)
    assert main(["validate", "--scenario", str(path)]) == 0
    capsys.readouterr()
    for argv in (["run", "--out", str(tmp_path / "out")], ["scan", "--step", "399"]):
        assert main([argv[0], "--scenario", str(path), *argv[1:]]) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("runtime error: "), lines


def test_failed_run_leaves_the_csv_rows_of_its_completed_steps(tmp_path, monkeypatch, capsys):
    path, out = runaway_scenario(tmp_path), tmp_path / "out"
    done = completed_steps(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)], caught
    assert capsys.readouterr().err.startswith("runtime error: ")
    assert 0 < len(done) < 400 and done == list(range(len(done)))
    assert not (out / "summary.json").exists()
    rows = (out / "pools.csv").read_text().splitlines()
    assert rows[0].startswith("step,") and len(rows) == 1 + 3 * len(done)  # header + one row per pool
    assert rows[-1].startswith(f"{done[-1]},")
    assert (out / "vaults.csv").read_text().splitlines()[0].startswith("step,vault_id,")


def test_unwritable_output_path_is_an_io_error_before_any_step(tmp_path, monkeypatch, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n")
    done = completed_steps(monkeypatch)
    assert main(["run", "--scenario", str(SCENARIOS / "table1.json"), "--out", str(taken)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("io error: "), lines
    assert done == []
    assert taken.read_text() == "a regular file\n"


def test_run_writes_output_contract(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(SCENARIOS / "table1.json"), "--out", str(out)]) == 0
    for name in ("pools.csv", "vaults.csv", "events.jsonl", "rewards.csv", "summary.json"):
        assert (out / name).exists(), name
    summary = json.loads(capsys.readouterr().out)
    assert summary["initial_tvl_usd"] == {
        "DAI": "9370000000",
        "WETH": "11050000000",
        "WBTC": "6410000000",
    }
    assert json.loads((out / "summary.json").read_text()) == summary


def test_horizon_override_gives_one_row_per_pool(tmp_path):
    out = tmp_path / "short"
    assert main(["run", "--scenario", str(SCENARIOS / "table1.json"), "--out", str(out), "--steps", "1"]) == 0
    rows = (out / "pools.csv").read_text().splitlines()
    assert len(rows) == 1 + 3  # header + one row per pool


def test_same_command_twice_identical_directories(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["run", "--scenario", str(SCENARIOS / "table1.json"), "--out"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    names = ["pools.csv", "vaults.csv", "events.jsonl", "rewards.csv", "summary.json"]
    match, mismatch, errs = filecmp.cmpfiles(a, b, names, shallow=False)
    assert match == names and not mismatch and not errs


def test_seed_override_changes_walk_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["run", "--scenario", str(SCENARIOS / "table1.json")]
    assert main(base + ["--out", str(a), "--seed", "1"]) == 0
    assert main(base + ["--out", str(b), "--seed", "2"]) == 0
    assert (a / "pools.csv").read_text() != (b / "pools.csv").read_text()


def test_scan_prints_arbitrage_line(capsys):
    assert main(["scan", "--scenario", str(SCENARIOS / "arb_gap.json"), "--step", "0"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(lines) == 1
    assert lines[0]["kind"] == "arbitrage"
    assert lines[0]["expected_profit"] == "1000"
    assert set(lines[0]) >= {"step", "kind", "asset", "size", "expected_profit", "venue_or_target"}


def test_scan_crash_step_has_liquidation_opportunity(capsys):
    assert main(["scan", "--scenario", str(SCENARIOS / "crash_flash2.json"), "--step", "3"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert any(l["kind"] == "liquidation" for l in lines)


def test_scan_healthy_step_is_empty(capsys):
    assert main(["scan", "--scenario", str(SCENARIOS / "crash_flash2.json"), "--step", "2"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_scan_step_outside_horizon_rejected():
    assert main(["scan", "--scenario", str(SCENARIOS / "crash_flash2.json"), "--step", "99"]) == 1


def test_scan_negative_step_rejected(capsys):
    assert main(["scan", "--scenario", str(SCENARIOS / "crash_flash2.json"), "--step", "-1"]) == 1
    assert "validation error: step -1 outside horizon" in capsys.readouterr().err
