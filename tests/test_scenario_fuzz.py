"""Fuzz over JSON documents: a scenario is accepted and runs, or it is rejected.

One field of a bundled scenario (any key path, container or leaf) is replaced
by an arbitrary JSON value, and the document is round-tripped through the JSON
module so it is exactly what a scenario file could hold (NaN and Infinity
included, as Python's reader accepts them). Parsing plus validation must either
accept the document or raise ParseError/ValidationError; an accepted document
must build an engine and run two steps with no exception escaping.

A second fuzz inserts a key no table knows into any object a table reads (any
object but a map keyed by asset symbol); that is always a ParseError naming
the key's path.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lendsim.scenario import ParseError, ValidationError, parse_scenario, validate_scenario
from lendsim.simulation import SimulationEngine

from conftest import KEY_TABLES

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = {path.stem: json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))}


def field_paths(node, prefix=()):
    """The key path of every field below `node`, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


FIELDS = [(name, path) for name, doc in BUNDLED.items() for path in field_paths(doc)]

# decimal strings as well as arbitrary text, so amounts and prices get past the
# reader; exponent notation reaches the amount bound and runaway magnitudes
decimal_strings = (
    st.integers().map(str)
    | st.decimals(allow_nan=False, allow_infinity=False).map(lambda d: format(d, "f"))
    | st.integers(-40, 6000).map(lambda e: f"1e{e}")
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | decimal_strings,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FIELDS), json_values)
def test_replaced_field_is_rejected_or_runs(field, value):
    name, path = field
    doc = json.loads(json.dumps(BUNDLED[name]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    doc = json.loads(json.dumps(doc))
    try:
        sc = parse_scenario(doc)
        validate_scenario(sc)
    except (ParseError, ValidationError):
        return
    SimulationEngine(sc, horizon=2).run()


SYMBOL_MAPS = {"endowment", "quotes", "inventory", "series", "initial", "issuance_fractions"}


def table_object(doc, path) -> bool:
    node = doc
    for key in path:
        node = node[key]
    return isinstance(node, dict) and not (path and path[-1] in SYMBOL_MAPS)


OBJECTS = [(name, path) for name, doc in BUNDLED.items() for path in [(), *field_paths(doc)] if table_object(doc, path)]
KNOWN_KEYS = set().union(*KEY_TABLES.values())


def json_path(path) -> str:
    """("pools", 0, "rate_model") -> "pools[0].rate_model"; a path starts with a key of the root."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(OBJECTS), st.text().filter(lambda key: key not in KNOWN_KEYS), json_values)
def test_inserted_unknown_key_is_a_parse_error_naming_its_path(obj, key, value):
    name, path = obj
    doc = json.loads(json.dumps(BUNDLED[name]))
    node = doc
    for part in path:
        node = node[part]
    node[key] = value
    with pytest.raises(ParseError) as info:
        parse_scenario(json.loads(json.dumps(doc)))
    assert f"{json_path(path + (key,))}: unknown key" in info.value.problems
