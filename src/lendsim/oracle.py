"""Per-step USD price source: recorded series or seeded geometric walks.

Replay feeds hold the latest recorded point at or before the queried step.
Walk feeds evolve p(t+1) = p(t) * exp(drift + vol * z) with z from a
per-asset RNG derived from the master seed via sha256, so paths are
independent of query order and of which other assets exist. Prices are
quantized to wad immediately. Besides its feeds, the oracle holds the current
step's prices: ensure_step(t) reads every asset's price at t into one dict,
which price_at and value_usd read at t; any other step, or an asset with no
price at t, is looked up in the feed.
The oracle trusts its feeds: `scenario.build_world` makes it only from a
parsed, validated scenario, which checks the mode, prices and series order.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field

from . import errors
from .fixed import AmountError, from_str, mul_down, require_amount

REPLAY = "replay"
WALK = "walk"


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from arbitrary labels (process-hash independent)."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass
class WalkParams:
    seed: int
    drift: float
    volatility: float
    initial: dict[str, int]  # asset -> wad price at step 0


@dataclass
class PriceOracle:
    mode: str
    # replay: asset -> sorted list of (step, wad price)
    series: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    walk: WalkParams | None = None
    _paths: dict[str, list[int]] = field(default_factory=dict, repr=False)
    _rngs: dict[str, random.Random] = field(default_factory=dict, repr=False)
    _step: int = field(default=-1, repr=False)  # the step _prices holds
    _prices: dict[str, int] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    def assets(self) -> list[str]:
        if self.mode == REPLAY:
            return list(self.series)
        assert self.walk is not None
        return list(self.walk.initial)

    def ensure_step(self, step: int) -> None:
        """Hold every asset's price at `step` in one dict (extending walk paths up to it)."""
        prices = {}
        for asset in self.assets():
            try:
                prices[asset] = self._lookup(asset, step)
            except (errors.StepBeforeFirstPoint, errors.MissingFeed):
                continue  # no price at `step`: price_at looks it up again and raises
        self._step, self._prices = step, prices

    def price_at(self, asset: str, step: int) -> int:
        if step == self._step:
            price = self._prices.get(asset)
            if price is not None:
                return price
        return self._lookup(asset, step)

    def _lookup(self, asset: str, step: int) -> int:
        if step < 0:
            raise ValueError("step must be >= 0")
        if self.mode == REPLAY:
            points = self.series.get(asset)
            if not points:
                raise errors.MissingFeed(asset)
            # hold the latest point at or before `step`
            idx = bisect_right(points, (step, float("inf"))) - 1
            if idx < 0:
                raise errors.StepBeforeFirstPoint(f"{asset} feed starts at step {points[0][0]}, asked {step}")
            return points[idx][1]
        assert self.walk is not None
        if asset not in self.walk.initial:
            raise errors.MissingFeed(asset)
        return self._walk_path(asset, step)[step]

    def value_usd(self, amount: int, asset: str, step: int) -> int:
        require_amount(amount)
        return mul_down(amount, self.price_at(asset, step))

    # ------------------------------------------------------------------
    def _walk_path(self, asset: str, step: int) -> list[int]:
        assert self.walk is not None
        path = self._paths.get(asset)
        if path is None:
            path = [self.walk.initial[asset]]
            self._paths[asset] = path
            self._rngs[asset] = random.Random(derive_seed(self.walk.seed, "walk", asset))
        rng = self._rngs[asset]
        while len(path) <= step:
            z = rng.gauss(0.0, 1.0)
            factor = math.exp(self.walk.drift + self.walk.volatility * z)
            try:
                path.append(max(1, int(path[-1] * factor)))
            except OverflowError:
                raise errors.Overflow(
                    f"walk price of {asset} leaves the float range at step {len(path)}"
                ) from None
        return path


def load_feed_csv(path: str, problems: list[str]) -> dict[str, list[tuple[int, int]]]:
    """Read a CSV with header `step,asset,price` into series: steps in plain digits,
    prices as decimal strings. Each malformed line adds a problem naming `<path>:<line>`."""
    series: dict[str, list[tuple[int, int]]] = {}
    with open(path, newline="") as fp:
        reader = csv.reader(fp)
        try:
            header = next(reader, [])
            if header != ["step", "asset", "price"]:
                problems.append(f"{path}:1: header must be step,asset,price, got {','.join(header)!r}")
                return series
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if not row:
                    continue  # a blank line
                if len(row) != 3:
                    problems.append(f"{where}: expected 3 fields, got {len(row)}")
                elif not (row[0].isascii() and row[0].isdigit()):
                    problems.append(f"{where}: step {row[0]!r} must be plain digits")
                else:
                    try:
                        series.setdefault(row[1], []).append((int(row[0]), from_str(row[2])))
                    except AmountError as exc:
                        problems.append(f"{where}: {exc}")
        except csv.Error as exc:
            problems.append(f"{path}:{reader.line_num}: {exc}")
    for points in series.values():
        points.sort()
    return series
