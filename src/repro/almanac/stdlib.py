"""Almanac runtime library (List. 1) and general-purpose builtins.

Seeds call into two families of functions:

* **soil services** (List. 1): ``res()``, ``addTCAMRule()``,
  ``removeTCAMRule()``, ``getTCAMRule()``, ``exec()`` — these are forwarded
  to the :class:`HostInterface` the soil implements;
* **pure helpers**: list/string/math utilities that keep task code small
  (the "common auxiliary functions" of SIII-A-d).

Almanac struct values (``Rule { .pattern = ..., .act = ... }``) are plain
dicts with a ``__struct__`` tag; field access works uniformly on dicts and
Python objects.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Dict, List, Mapping, Optional, Protocol

from repro.errors import AlmanacRuntimeError
from repro.net import filters as flt


class HostInterface(Protocol):
    """What a seed's execution environment must provide.

    The soil is the production implementation; tests use lightweight stubs.
    """

    def now(self) -> float:
        """Current time (seconds)."""

    def resources(self) -> Mapping[str, float]:
        """This seed's currently-allocated resources (``res()``)."""

    def add_tcam_rule(self, rule: Dict[str, Any]) -> None:
        """Install a monitoring-region TCAM rule (local reaction)."""

    def remove_tcam_rule(self, pattern: flt.Filter) -> None:
        """Remove rules with this exact pattern."""

    def get_tcam_rule(self, pattern: flt.Filter) -> Optional[Dict[str, Any]]:
        """Look up an installed rule."""

    def send_to_harvester(self, value: Any) -> None:
        """Ship a value to the task's harvester."""

    def send_to_machine(self, machine: str, dst: Optional[Any],
                        value: Any) -> None:
        """Ship a value to seeds of ``machine`` (all hosts if dst is None)."""

    def set_trigger_interval(self, var: str, interval: float) -> None:
        """Re-arm a trigger variable's timer with a new period."""

    def transit_hook(self, old_state: str, new_state: str) -> None:
        """Notified on every state transition (placement bookkeeping)."""

    def exec_external(self, command: str, arg: Any) -> Any:
        """Run external code (the ML task's ``exec()``)."""

    def log(self, message: str) -> None:
        """Diagnostics."""


def make_struct(name: str, **fields: Any) -> Dict[str, Any]:
    """Build an Almanac struct value."""
    value = {"__struct__": name}
    value.update(fields)
    return value


def is_struct(value: Any, name: Optional[str] = None) -> bool:
    return (isinstance(value, dict) and "__struct__" in value
            and (name is None or value["__struct__"] == name))


def _need_list(value: Any, func: str) -> List[Any]:
    if not isinstance(value, list):
        raise AlmanacRuntimeError(f"{func}() expects a list, got {type(value).__name__}")
    return value


def _entropy(values: List[Any]) -> float:
    """Shannon entropy of a sample (the entropy-estimation use case [31])."""
    if not values:
        return 0.0
    counts: Dict[Any, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    total = len(values)
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def pure_builtins() -> Dict[str, Callable[..., Any]]:
    """Host-independent builtins available to every seed and harvester.

    A fresh dict of the same module-level functions on every call, so the
    closure compiler can recognise the stdlib's own ``size`` by identity.
    """
    return dict(_PURE_BUILTINS)


def _map_inc(m: Dict[Any, Any], key: Any, amount: Any = 1) -> Any:
    """Increment a counter map entry; returns the new count."""
    value = m.get(key, 0) + amount
    m[key] = value
    return value


def _ipstr(value: Any) -> str:
    from repro.net.addresses import format_ip
    return format_ip(int(value))


def _prefix_of(ip: Any, length: Any) -> int:
    """Network address of ``ip`` under a /length mask (HHH aggregation)."""
    length = int(length)
    if not 0 <= length <= 32:
        raise AlmanacRuntimeError(f"prefix length out of range: {length}")
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
    return int(ip) & mask


_PURE_BUILTINS: Dict[str, Callable[..., Any]] = {
    # arithmetic
    "min": lambda *xs: min(xs),
    "max": lambda *xs: max(xs),
    "abs": abs,
    "floor": math.floor,
    "ceil": math.ceil,
    "sqrt": math.sqrt,
    "log2": math.log2,
    "pow": pow,
    # lists
    "size": lambda x: len(x),
    "is_list_empty": lambda l: len(_need_list(l, "is_list_empty")) == 0,
    "append": lambda l, x: (_need_list(l, "append").append(x), l)[1],
    "clear": lambda l: (_need_list(l, "clear").clear(), l)[1],
    "contains": lambda l, x: x in l,
    "get": lambda l, i: _need_list(l, "get")[int(i)],
    "remove_at": lambda l, i: _need_list(l, "remove_at").pop(int(i)),
    "sorted_copy": lambda l: sorted(_need_list(l, "sorted_copy")),
    "concat_lists": lambda a, b: list(a) + list(b),
    # strings
    "tostring": str,
    "toint": lambda x: int(float(x)),
    "tofloat": float,
    "strlen": lambda s: len(str(s)),
    "match": lambda s, pattern: re.search(pattern, str(s)) is not None,
    "split": lambda s, sep: str(s).split(sep),
    # stats helpers
    "entropy": _entropy,
    "sum_list": lambda l: sum(_need_list(l, "sum_list")),
    "mean": lambda l: (sum(l) / len(l)) if l else 0.0,
    # associative maps (counters keyed by IPs, ports, prefixes)
    "makeMap": dict,
    "mapInc": _map_inc,
    "mapGet": lambda m, k: m.get(k, 0),
    "mapSet": lambda m, k, v: (m.__setitem__(k, v), m)[1],
    "mapDel": lambda m, k: (m.pop(k, None), m)[1],
    "mapHas": lambda m, k: k in m,
    "mapSize": lambda m: len(m),
    "mapKeys": lambda m: list(m.keys()),
    "mapValues": lambda m: list(m.values()),
    "mapClear": lambda m: (m.clear(), m)[1],
    # IP helpers
    "ipstr": _ipstr,
    "prefixOf": _prefix_of,
    # struct constructors used by tasks
    "makeRule": lambda pattern, act: make_struct(
        "Rule", pattern=pattern, act=act),
    "makeDropAction": lambda: {"action": "drop"},
    "makeRateLimitAction": lambda rate: {"action": "rate_limit",
                                         "rate_bps": float(rate)},
    "makeQosAction": lambda cls: {"action": "set_qos", "qos_class": cls},
    "makeMirrorAction": lambda: {"action": "mirror"},
    "makeCountAction": lambda: {"action": "count"},
}


def host_builtins(host: HostInterface) -> Dict[str, Callable[..., Any]]:
    """Builtins that delegate to the soil (List. 1's API)."""

    def res() -> Dict[str, Any]:
        return make_struct("Resources", **dict(host.resources()))

    def add_tcam_rule(rule: Any) -> None:
        if not is_struct(rule, "Rule"):
            raise AlmanacRuntimeError(
                "addTCAMRule() expects a Rule{.pattern=..., .act=...}")
        host.add_tcam_rule(rule)

    def remove_tcam_rule(pattern: Any) -> None:
        if not isinstance(pattern, flt.Filter):
            raise AlmanacRuntimeError(
                "removeTCAMRule() expects a filter expression")
        host.remove_tcam_rule(pattern)

    def get_tcam_rule(pattern: Any) -> Any:
        if not isinstance(pattern, flt.Filter):
            raise AlmanacRuntimeError(
                "getTCAMRule() expects a filter expression")
        rule = host.get_tcam_rule(pattern)
        # "No such rule" is 0 in Almanac (the mapGet convention); the
        # language has no null literal to compare against.
        return 0 if rule is None else rule

    def exec_(command: Any, arg: Any = None) -> Any:
        return host.exec_external(str(command), arg)

    return {
        "res": res,
        "addTCAMRule": add_tcam_rule,
        "removeTCAMRule": remove_tcam_rule,
        "getTCAMRule": get_tcam_rule,
        "exec": exec_,
        "now": host.now,
        "log": lambda msg: host.log(str(msg)),
    }
