"""Seeded scenario documents for the three benchmark workloads.

Each builder takes the workload seed and returns a schema-1 scenario document
(plain JSON data). The engine only ever sees that document: the seed reaches
it as the scenario seed (agent shuffle), the walk seed (price paths) and,
in `cascade`, the price jitter, the spiral schedule and the vault book.

Workloads, and why each exists:

* desk    -- acceptance criterion 11: 100 agents, 3 pools, an AMM and a
             quote venue, a gently moving walk, rewards on. Almost every step
             changes nothing, so per-step recomputation (rewards, both
             scanners, shuffle, telemetry) dominates.
* crowd   -- desk plus 5,000 depositors who act once at step 0 and then sit
             idle. Shows how step cost grows with accounts that do nothing
             (rewards, shuffle, `active` polling, whole-world checkpoints).
* cascade -- write-heavy: 140 one-shot spirals spread over the horizon, a
             market falling 20% with per-step jitter, and 100 CDP vaults
             opened at set-up. The liquidation scanner simulates plans on
             scratch checkpoints; rewards are off so that layer is bypassed.
             The fall, the spiral count and the set of vault draws are fixed,
             so every seed does about the same amount of work.
"""

from __future__ import annotations

import random

WORKLOADS = ("desk", "crowd", "cascade")

# Steps simulated per run. A run is one `SimulationEngine.run`; the benchmark
# repeats runs until its time budget is spent.
HORIZON = {"desk": 4000, "crowd": 500, "cascade": 1000}

CROWD_IDLE_DEPOSITORS = 5000
CASCADE_LEVERAGE_SPIRALS = 100
CASCADE_BORROW_SPIRALS = 40
CASCADE_VAULTS = 100
CASCADE_FALL_BPS = 2000

_RATED = {"base_rate": "0", "slope1": "0.000002", "slope2": "0.00004", "kink": "0.8", "reserve_factor": "0.1"}


def _pool(asset: str, iou: str, mode: str = "exchange-rate", **overrides) -> dict:
    doc = {
        "asset": asset,
        "iou_symbol": iou,
        "iou_mode": mode,
        "collateral_factor": "0.75",
        "liquidation_threshold": "0.8",
        "liquidation_bonus": "0.05",
        "close_factor": "0.5",
        "flash_fee": "0",
        "rate_model": dict(_RATED),
        "initial_cash": "0",
    }
    doc.update(overrides)
    return doc


def _doc(*, pools, venues, agents, walk, horizon, seed, rewards=None, cdp=None) -> dict:
    doc = {
        "schema_version": 1,
        "assets": ["ETH", "DAI", "BTC"],
        "pools": pools,
        "venues": venues,
        "price_feeds": {"mode": "walk", "seed": seed, **walk},
        "agents": agents,
        "horizon": horizon,
        "seed": seed,
    }
    if rewards is not None:
        doc["rewards"] = rewards
    if cdp is not None:
        doc["cdp"] = cdp
    return doc


def desk(seed: int, horizon: int | None = None) -> dict:
    """Acceptance criterion 11's desk-scale run, with the seed as a parameter."""
    agents = []
    for i in range(92):
        asset = ["ETH", "DAI", "BTC"][i % 3]
        agents.append({"id": f"d{i}", "kind": "depositor", "endowment": {asset: "100"},
                       "params": {"pool": asset}, "window": [0, 0]})
    for i in range(4):
        agents.append({"id": f"farm{i}", "kind": "borrow_spiral", "endowment": {"DAI": "5000"},
                       "params": {"pool": "DAI", "iteration_cap": 8}, "window": [1, 1]})
    for i in range(2):
        agents.append({"id": f"lev{i}", "kind": "leverage_spiral", "endowment": {"ETH": "50"},
                       "params": {"collateral": "ETH", "borrow": "DAI", "venue": "amm1", "iteration_cap": 6},
                       "window": [2, 2]})
    agents.append({"id": "keeper", "kind": "liquidator", "endowment": {"DAI": "100000"},
                   "params": {}, "window": [0, 2**40]})
    agents.append({"id": "arb", "kind": "arbitrageur", "endowment": {}, "params": {}, "window": [0, 2**40]})
    return _doc(
        pools=[
            _pool("ETH", "cETH", initial_cash="2000"),
            _pool("DAI", "aDAI", "rebasing", collateral_factor="0.7", liquidation_threshold="0.8",
                  initial_cash="5000000"),
            _pool("BTC", "cBTC", initial_cash="100"),
        ],
        venues=[
            {"kind": "amm", "id": "amm1", "pair": ["ETH", "DAI"], "reserves": ["2000", "4000000"], "fee_bps": 30},
            {"kind": "quote", "id": "q1", "numeraire": "DAI", "quotes": {"ETH": "2000", "BTC": "50000"},
             "fee_bps": 30, "inventory": {"ETH": "1000", "BTC": "50", "DAI": "4000000"}},
        ],
        agents=agents,
        walk={"drift": "0", "volatility": "0.0005", "initial": {"ETH": "2000", "DAI": "1", "BTC": "50000"}},
        rewards={"emission_per_pool": "1", "supply_split": "0.5"},
        horizon=HORIZON["desk"] if horizon is None else horizon,
        seed=seed,
    )


def crowd(seed: int, horizon: int | None = None) -> dict:
    """`desk` plus idle depositors: same activity, many more accounts."""
    doc = desk(seed, HORIZON["crowd"] if horizon is None else horizon)
    for i in range(CROWD_IDLE_DEPOSITORS):
        asset = ["ETH", "DAI", "BTC"][i % 3]
        amount = {"ETH": "1", "DAI": "2000", "BTC": "0.04"}[asset]
        doc["agents"].append({"id": f"idle{i}", "kind": "depositor", "endowment": {asset: amount},
                              "params": {"pool": asset}, "window": [0, 0]})
    return doc


def _falling_series(rng: random.Random, initial: int, horizon: int) -> list[list]:
    """A market that falls 20% over the horizon, with seeded per-step jitter.

    The trend is fixed and the jitter (up to 30 bps either way) does not
    accumulate, so every seed liquidates about as much. Integer arithmetic
    keeps the series identical on every platform.
    """
    points = []
    for step in range(horizon):
        trend = initial * 10**6 * (horizon * 10_000 - CASCADE_FALL_BPS * step) // (horizon * 10_000)
        price = trend * (10_000 + rng.randint(-30, 30)) // 10_000
        points.append([step, f"{price // 10**6}.{price % 10**6:06d}"])
    return points


def _spread(rng: random.Random, count: int, horizon: int) -> list[int]:
    """One start step per stride of the horizon, at a seeded offset in it."""
    stride = horizon / count
    return [int(i * stride) + rng.randrange(max(int(stride), 1)) for i in range(count)]


def cascade(seed: int, horizon: int | None = None) -> dict:
    """Spirals at seeded steps into a falling market, liquidated by flash loans."""
    horizon = HORIZON["cascade"] if horizon is None else horizon
    rng = random.Random(seed)
    agents = []
    for i, start in enumerate(_spread(rng, CASCADE_LEVERAGE_SPIRALS, horizon)):
        if i % 2:
            endowment, params = {"BTC": "0.4"}, {"collateral": "BTC", "borrow": "DAI", "venue": "q1"}
        else:
            endowment, params = {"ETH": "10"}, {"collateral": "ETH", "borrow": "DAI", "venue": "amm1"}
        params["iteration_cap"] = 12
        agents.append({"id": f"lev{i}", "kind": "leverage_spiral", "endowment": endowment,
                       "params": params, "window": [start, start]})
    for i, start in enumerate(_spread(rng, CASCADE_BORROW_SPIRALS, horizon)):
        agents.append({"id": f"farm{i}", "kind": "borrow_spiral", "endowment": {"DAI": "20000"},
                       "params": {"pool": "DAI", "iteration_cap": 12}, "window": [start, start]})
    agents.append({"id": "keeper", "kind": "liquidator", "endowment": {"DAI": "100000"},
                   "params": {"use_flashloan": True}, "window": [0, horizon]})
    agents.append({"id": "arb", "kind": "arbitrageur", "endowment": {}, "params": {}, "window": [0, horizon]})
    steep = {"base_rate": "0.00001", "slope1": "0.00002", "slope2": "0.0004"}
    doc = _doc(
        pools=[
            _pool("ETH", "cETH", initial_cash="20000", flash_fee="0.0009", rate_model={**_RATED, **steep}),
            _pool("DAI", "aDAI", "rebasing", collateral_factor="0.7", liquidation_threshold="0.8",
                  flash_fee="0.0009", initial_cash="100000000", rate_model={**_RATED, **steep}),
            _pool("BTC", "cBTC", initial_cash="800", flash_fee="0.0009", rate_model={**_RATED, **steep}),
        ],
        venues=[
            {"kind": "amm", "id": "amm1", "pair": ["ETH", "DAI"], "reserves": ["40000", "80000000"], "fee_bps": 30},
            {"kind": "quote", "id": "q1", "numeraire": "DAI", "quotes": {"ETH": "2000", "BTC": "50000"},
             "fee_bps": 30, "inventory": {"ETH": "20000", "BTC": "400", "DAI": "100000000"}},
        ],
        agents=agents,
        walk={},
        rewards={"emission_per_pool": "0"},
        cdp={"dai_symbol": "DAI", "issuance_fractions": {"ETH": "0.66", "BTC": "0.66"},
             "stability_fee": "0.00001", "liquidation_penalty": "0.13"},
        horizon=horizon,
        seed=seed,
    )
    doc["price_feeds"] = {"mode": "replay", "series": {
        "ETH": _falling_series(rng, 2000, horizon),
        "BTC": _falling_series(rng, 50000, horizon),
        "DAI": [[0, "1"]],
    }}
    return doc


BUILDERS = {"desk": desk, "crowd": crowd, "cascade": cascade}


def open_vaults(world, seed: int) -> None:
    """Open the cascade vault book at step 0 through the CDP engine's public calls.

    Owners are fresh ledger accounts funded at genesis, as build_world funds
    agent endowments. The vaults draw 60% to 95% of their issuance bound,
    evenly spread (no two alike) and dealt out by the seed, so the falling
    market pushes them past the bound at different steps.
    """
    rng = random.Random(seed)
    draws = [600 + 350 * i // (CASCADE_VAULTS - 1) for i in range(CASCADE_VAULTS)]  # per mille
    rng.shuffle(draws)
    cdp, ledger = world.cdp, world.ledger
    world.oracle.ensure_step(0)
    for i in range(CASCADE_VAULTS):
        owner = ledger.register_account(f"vault-owner{i}", "user")
        asset, amount = ("ETH", 5 * 10**18) if i % 2 else ("BTC", 2 * 10**17)
        ledger.mint(owner, asset, amount, "genesis", tag="genesis")
        vault_id = cdp.open_vault(owner)
        cdp.lock(world, vault_id, asset, amount)
        bound = cdp.issuance_bound(world, cdp.vault(vault_id), 0)
        cdp.draw(world, vault_id, bound * draws[i] // 1000, 0)
