"""Golden digests: run outputs pinned byte for byte.

Each bundled scenario's run directory, a liquidation fixture's run directory
and (in test_acceptance) the desk run's summary are pinned by sha256 in
tests/digests.json, so a change that alters any output byte fails here and has
to say why. The "table1 --verbosity 2" pin adds every step's agent-order
event: the agents that act, in the order they act. The bundled scenarios
liquidate nothing, so the fixture below drives every liquidation path: pool
liquidations seizing from an exchange-rate and from a rebasing pool, vault
liquidations, and flash loans that redeem the seized claim. The benchmark's
cascade workload, on a short horizon, pins the same paths on a world of 253
accounts, where the liquidation scanner prices every candidate on a scratch
checkpoint that it rolls back.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from conftest import DIGESTS, make_doc, pool_doc
from lendsim.cli import main
from lendsim.fixed import wad
from lendsim.scenario import parse_scenario, validate_scenario
from lendsim.simulation import SimulationEngine

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

FIXTURE_HORIZON = 80
FIXTURE_CRASH_STEP = 50
FIXTURE_VAULTS = 6
CASCADE_SEED = 1
CASCADE_HORIZON = 200


def dir_digest(directory: Path) -> str:
    """sha256 over the sorted file names and contents of a run directory."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _falling(initial: int) -> list[list]:
    """A replay series sliding 20% over the horizon, with a 35% crash midway.

    The slide makes the most levered positions unsafe one by one; the crash
    leaves the rest under water, so seizes hit the collateral cap.
    """
    points = []
    for step in range(FIXTURE_HORIZON):
        price = initial * (100 * FIXTURE_HORIZON - 20 * step) // (100 * FIXTURE_HORIZON)
        if step >= FIXTURE_CRASH_STEP:
            price = price * 65 // 100
        points.append([step, str(price)])
    return points


def liquidation_fixture() -> SimulationEngine:
    """Leverage spirals into a falling market, cleared by a flash-loan keeper.

    ETH is the rebasing pool and is levered through the AMM; BTC is an
    exchange-rate pool levered through the quote venue. Six CDP vaults are
    opened at step 0 at 77% to 97% of their issuance bound.
    """
    rated = {"base_rate": "0", "slope1": "0.000002", "slope2": "0.00004", "reserve_factor": "0.1"}
    agents = []
    for i in range(4):
        agents.append({"id": f"amm{i}", "kind": "leverage_spiral", "endowment": {"ETH": "10"},
                       "params": {"collateral": "ETH", "borrow": "DAI", "venue": "amm1", "iteration_cap": 6},
                       "window": [2 * i, 2 * i]})
        agents.append({"id": f"quote{i}", "kind": "leverage_spiral", "endowment": {"BTC": "0.4"},
                       "params": {"collateral": "BTC", "borrow": "DAI", "venue": "q1", "iteration_cap": 6},
                       "window": [2 * i + 1, 2 * i + 1]})
    agents.append({"id": "saver", "kind": "depositor", "endowment": {"DAI": "50000"},
                   "params": {"pool": "DAI"}, "window": [0, 0]})
    agents.append({"id": "farm", "kind": "borrow_spiral", "endowment": {"DAI": "20000"},
                   "params": {"pool": "DAI", "iteration_cap": 4}, "window": [1, 1]})
    agents.append({"id": "keeper", "kind": "liquidator", "endowment": {"DAI": "1000"},
                   "params": {"use_flashloan": True}, "window": [0, FIXTURE_HORIZON]})
    agents.append({"id": "arb", "kind": "arbitrageur", "endowment": {}, "params": {},
                   "window": [0, FIXTURE_HORIZON]})
    doc = make_doc(
        assets=["ETH", "DAI", "BTC"],
        pools=[
            pool_doc("ETH", "aETH", "rebasing", flash_fee="0.0009", initial_cash="2000", rate_model=rated),
            pool_doc("DAI", "cDAI", collateral_factor="0.7", flash_fee="0.0009",
                     initial_cash="10000000", rate_model=rated),
            pool_doc("BTC", "cBTC", liquidation_bonus="0.08", flash_fee="0.0009",
                     initial_cash="100", rate_model=rated),
        ],
        venues=[
            {"kind": "amm", "id": "amm1", "pair": ["ETH", "DAI"], "reserves": ["4000", "8000000"], "fee_bps": 30},
            {"kind": "quote", "id": "q1", "numeraire": "DAI", "quotes": {"ETH": "2000", "BTC": "50000"},
             "fee_bps": 30, "inventory": {"ETH": "1000", "BTC": "50", "DAI": "10000000"}},
        ],
        prices={
            "ETH": _falling(2000),
            "BTC": _falling(50000),
            "DAI": [[0, "1"]],
        },
        agents=agents,
        cdp={"dai_symbol": "DAI", "issuance_fractions": {"ETH": "0.66", "BTC": "0.66"},
             "stability_fee": "0.00001", "liquidation_penalty": "0.13"},
        rewards={"emission_per_pool": "1", "supply_split": "0.5"},
        horizon=FIXTURE_HORIZON,
        seed=11,
    )
    sc = parse_scenario(doc)
    validate_scenario(sc)
    engine = SimulationEngine(sc)
    world = engine.world
    world.oracle.ensure_step(0)
    for i in range(FIXTURE_VAULTS):
        owner = world.ledger.register_account(f"vault-owner{i}", "user")
        asset, amount = ("ETH", wad(5)) if i % 2 else ("BTC", wad("0.2"))
        world.ledger.mint(owner, asset, amount, "genesis", tag="genesis")
        vault_id = world.cdp.open_vault(owner)
        world.cdp.lock(world, vault_id, asset, amount)
        bound = world.cdp.issuance_bound(world, world.cdp.vault(vault_id), 0)
        world.cdp.draw(world, vault_id, bound * (97 - 4 * i) // 100, 0)
    return engine


@pytest.mark.parametrize("name", sorted(DIGESTS["scenarios"]))
def test_bundled_scenario_outputs_pinned(name, tmp_path):
    scenario, *flags = name.split()
    out = tmp_path / scenario
    assert main(["run", "--scenario", str(SCENARIOS / f"{scenario}.json"), "--out", str(out), *flags]) == 0
    assert dir_digest(out) == DIGESTS["scenarios"][name]


def test_liquidation_fixture_outputs_pinned(tmp_path):
    engine = liquidation_fixture()
    engine.run(out_dir=tmp_path)
    world = engine.world
    seized_modes = [
        world.pools[e["seize_asset"]].params.iou_mode for e in world.events if e["kind"] == "liquidation"
    ]
    # the fixture must keep exercising every path the digest stands for
    assert "exchange-rate" in seized_modes and "rebasing" in seized_modes
    assert any(e["kind"] == "vault-liquidation" for e in world.events)
    assert any(e["kind"] == "flash" and e["outcome"] == "committed" for e in world.events)
    assert world.screen.anchors  # the liquidator agent's scans file anchors
    assert dir_digest(tmp_path) == DIGESTS["liquidation_fixture"]


def perfbench_workloads():
    """The benchmark's workload builders, loaded from their file (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cascade_workload_outputs_pinned(tmp_path):
    workloads = perfbench_workloads()
    sc = parse_scenario(workloads.cascade(CASCADE_SEED, CASCADE_HORIZON))
    validate_scenario(sc)
    engine = SimulationEngine(sc)
    workloads.open_vaults(engine.world, CASCADE_SEED)
    engine.run(out_dir=tmp_path)
    events = engine.world.events
    assert any(e["kind"] == "flash" and e["plan"] == "liquidation" and e["outcome"] == "committed" for e in events)
    assert any(e["kind"] == "vault-liquidation" for e in events)
    assert dir_digest(tmp_path) == DIGESTS["cascade_workload"]
