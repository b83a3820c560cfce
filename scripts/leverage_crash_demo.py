#!/usr/bin/env python3
"""Leverage-then-crash walkthrough: spiral up, crash the price, clear the wreck.

Builds the crash scenario in memory, runs it step by step, and narrates the
trader's health factor plus every liquidation-loan opportunity the scanner
sees, executing the best one at the crash step.
"""

import json

from lendsim import flashloan, liquidation
from lendsim.fixed import to_str
from lendsim.scenario import load_scenario, validate_scenario
from lendsim.simulation import SimulationEngine

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sc = load_scenario(str(ROOT / "scenarios" / "crash_flash2.json"))
    validate_scenario(sc)
    engine = SimulationEngine(sc)
    world = engine.world

    for t in range(sc.horizon):
        engine.step(t)
        report = liquidation.account_totals(world, "bull", t)
        price = to_str(world.oracle.price_at("ETH", t))
        print(f"step {t}: ETH {price:>6}  trader HF {report.hf_str()}")
        found = flashloan.scan_liquidations(world, t)
        for opp in found:
            print("  opportunity:", json.dumps(opp.to_record(t)))
        if found:
            outcome = flashloan.execute(world, found[0].plan, t)
            print(f"  executed best plan -> {outcome}")

    print("\nfinal trader position:")
    report = liquidation.account_totals(world, "bull", sc.horizon - 1)
    print(f"  collateral {to_str(report.collateral_value)} USD, "
          f"debt {to_str(report.debt_value)} USD, HF {report.hf_str()}")


if __name__ == "__main__":
    main()
