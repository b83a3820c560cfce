"""scripts/output_diff.py: a tree against itself shows nothing, and a moved value names its column."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def output_diff():
    spec = importlib.util.spec_from_file_location("output_diff", ROOT / "scripts" / "output_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tree_against_itself_reports_no_difference(capsys):
    assert output_diff().main([str(ROOT), str(ROOT), "--scenario", "table1"]) == 0
    assert capsys.readouterr().out == "scenario table1: no difference\n"


def test_a_moved_value_is_reported_in_its_column_only(tmp_path, capsys):
    old = tmp_path / "old"
    old.mkdir()
    (old / "pools.csv").write_text("step,asset,cash,reserves\n0,DAI,10.5,2\n1,DAI,10.5,2.000000000000000001\n")
    (old / "vaults.csv").write_text("step,vault,debt\n0,v1,0\n")
    (old / "summary.json").write_text('{"steps": 2, "pnl": {"a": "-1.5", "b": 0}}\n')
    new = tmp_path / "new"
    shutil.copytree(old, new)
    (new / "pools.csv").write_text("step,asset,cash,reserves\n0,DAI,10.5,2\n1,DAI,10.5,2.000000000000000003\n2,DAI,9,2\n")
    (new / "vaults.csv").write_text("step,vault,art\n0,v1,0\n")
    (new / "summary.json").write_text('{"steps": 3, "pnl": {"a": "-1.5", "b": "0.0"}}\n')
    assert output_diff().main(["--dirs", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "dirs: differs",
        "  pools.csv: 1 rows changed, 1 added, 0 removed",
        "    reserves: 1 changed, max abs 0.000000000000000002, max rel 1e-18",
        "  summary.json: 1 rows changed, 0 added, 0 removed",
        "    pnl.b: 1 changed, max abs 0, max rel 0",
        "    steps: 1 changed, max abs 1, max rel 0.333",
        "  vaults.csv: header step,vault,debt -> step,vault,art",
        "  vaults.csv: 0 rows changed, 0 added, 0 removed",
    ]
