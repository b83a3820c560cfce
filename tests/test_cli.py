"""CLI contract: subcommands, exit codes, deterministic run outputs."""

import filecmp
import json
from pathlib import Path

import pytest

from lendsim.cli import main

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
