"""Management-CPU model.

Switches in SVI-A carry commodity x86 CPUs (Xeon 8-core on the Tofino boxes,
Atom C2538 quad-core on the Accton AS5712/AS7712).  Seeds, the soil, and
baseline agents run here.  The model accounts:

* **standing load** — continuous work registered as a fraction of one core
  (CPU "load" in the paper's figures is reported in percent of one core and
  can exceed 100% on multi-core parts, cf. Fig. 6c's ~350%);
* **per-invocation work** — CPU-seconds charged per event (a seed handling
  one poll, an sFlow agent forwarding a sample);
* **context-switch overhead** — a per-entity, per-invocation tax that only
  applies to *process*-based entities; this is what makes 50 parallel ML
  seeds melt the CPU in Fig. 6c while thread-based seeds in Fig. 9 stay flat.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import SwitchError
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator

#: CPU-seconds consumed by one context switch (generous for an Atom-class
#: part with cold caches; the paper's figures imply switches are expensive).
CONTEXT_SWITCH_COST_S = 30e-6


class ManagementCpu:
    """Load accounting for the switch's local control-plane CPU."""

    def __init__(self, sim: Simulator, num_cores: int = 4,
                 name: str = "cpu",
                 registry: Optional[MetricsRegistry] = None,
                 labels: Optional[Mapping[str, Any]] = None) -> None:
        if num_cores <= 0:
            raise SwitchError(f"core count must be positive: {num_cores}")
        self.sim = sim
        self.num_cores = num_cores
        self.name = name
        self._standing: Dict[str, float] = {}  # key -> fraction of one core
        # sum() of _standing, refreshed on every mutation: charge_work
        # reads it once per charge, and re-summing there is O(seeds) per
        # event.
        self._standing_sum = self._sum_standing()
        self._work_integral = 0.0  # cpu-seconds of one-off work
        self._last_accumulate = sim.now
        self._standing_integral = 0.0  # integral of standing load (core*s)
        # Registry counters mirror the two integrals with the identical
        # float-add sequence, so load recomputed from the registry matches
        # mean_demand_percent() bit-for-bit (the Fig. 5 cross-check).
        self.metrics = registry or MetricsRegistry()
        self._m_work = self.metrics.counter(
            "farm_cpu_work_seconds_total",
            "One-off CPU-seconds charged (incl. context-switch tax).",
            labels=labels)
        self._m_standing_s = self.metrics.counter(
            "farm_cpu_standing_core_seconds_total",
            "Integral of standing load over sim time, in core-seconds.",
            labels=labels)
        self._m_ctx = self.metrics.counter(
            "farm_cpu_context_switches_total",
            "Context switches charged to the management CPU.", labels=labels)
        self._g_standing = self.metrics.gauge(
            "farm_cpu_standing_cores",
            "Current standing load in cores.", labels=labels)

    # ------------------------------------------------------------------
    # Standing load
    # ------------------------------------------------------------------
    def set_standing_load(self, key: str, core_fraction: float) -> None:
        """Register continuous load under ``key`` (replaces prior value)."""
        if core_fraction < 0:
            raise SwitchError(f"load must be non-negative: {core_fraction}")
        self._accumulate()
        self._standing[key] = core_fraction
        self._standing_sum = self._sum_standing()
        self._g_standing.set(self.standing_load_cores)

    def clear_standing_load(self, key: str) -> None:
        self._accumulate()
        self._standing.pop(key, None)
        self._standing_sum = self._sum_standing()
        self._g_standing.set(self.standing_load_cores)

    def clear_all_standing(self) -> None:
        """Drop every standing-load registration at once (power failure:
        nothing survives on the management CPU)."""
        self._accumulate()
        self._standing.clear()
        self._standing_sum = self._sum_standing()
        self._g_standing.set(0.0)

    def _sum_standing(self) -> float:
        # A fresh sum() every time (never the old sum adjusted by a
        # delta): the cached value keeps the rounding, and for an empty
        # dict the int 0, that summing on every read used to give.
        return sum(self._standing.values())

    @property
    def standing_load_cores(self) -> float:
        return self._standing_sum

    # ------------------------------------------------------------------
    # One-off work
    # ------------------------------------------------------------------
    def charge_work(self, cpu_seconds: float, context_switches: int = 0) -> float:
        """Charge ``cpu_seconds`` of computation (+ context switches).

        Returns the *wall-clock completion time* of the work given current
        contention: work slows down proportionally once total demand
        exceeds the core count.
        """
        if cpu_seconds < 0:
            raise SwitchError(f"work must be non-negative: {cpu_seconds}")
        total = cpu_seconds + context_switches * CONTEXT_SWITCH_COST_S
        self._work_integral += total
        self._m_work.inc(total)
        if context_switches:
            self._m_ctx.inc(context_switches)
        slowdown = max(1.0, self._standing_sum / self.num_cores)
        return total * slowdown

    def charge_work_repeated(self, charges: Sequence[Tuple[float, int]],
                             repeats: int) -> None:
        """Charge the cycle ``charges`` — ``(cpu_seconds, context_switches)``
        pairs — ``repeats`` times over, as that many :meth:`charge_work`
        calls in that order would.

        The work integral and its registry mirror advance through the same
        float-add sequence (``n * x`` rounds differently from ``x`` added
        ``n`` times), so load recomputed from the registry still matches
        :meth:`mean_demand_percent` bit for bit.  Completion times are
        those of the single charges: the slowdown only moves with the
        standing load.
        """
        totals = []
        switches = 0
        for cpu_seconds, context_switches in charges:
            if cpu_seconds < 0:
                raise SwitchError(f"work must be non-negative: {cpu_seconds}")
            totals.append(cpu_seconds
                          + context_switches * CONTEXT_SWITCH_COST_S)
            switches += context_switches
        work = self._work_integral
        for _ in range(repeats):
            for total in totals:
                work += total
        self._work_integral = work
        self._m_work.inc_repeated(totals, repeats)
        if switches:
            self._m_ctx.inc(switches * repeats)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _accumulate(self) -> None:
        dt = self.sim.now - self._last_accumulate
        if dt > 0:
            delta = self.standing_load_cores * dt
            self._standing_integral += delta
            self._m_standing_s.inc(delta)
        self._last_accumulate = self.sim.now

    def mean_demand_percent(self, window: float = 0.0) -> float:
        """Time-averaged *offered* load in percent (may exceed the cores:
        demand beyond capacity means work queues up and deadlines slip).
        """
        self._accumulate()
        horizon = self.sim.now if window == 0.0 else window
        if horizon <= 0:
            return self.standing_load_cores * 100.0
        mean_cores = (self._standing_integral + self._work_integral) / horizon
        return mean_cores * 100.0

    def mean_load_percent(self, window: float = 0.0) -> float:
        """Time-averaged *utilization* in percent, saturating at the core
        count — a 4-core part cannot report more than 400% (what Fig. 6's
        plateaus show).  Use :meth:`mean_demand_percent` for raw demand.
        """
        return min(self.mean_demand_percent(window),
                   self.num_cores * 100.0)

    @property
    def saturated_demand(self) -> bool:
        """Offered load exceeds total capacity (deadlines will slip)."""
        return self.mean_demand_percent() > self.num_cores * 100.0


def estimate_invocation_load(invocations_per_second: float,
                             cpu_seconds_per_invocation: float,
                             as_process: bool = False) -> float:
    """Steady-state core fraction for a periodic activity.

    ``as_process`` adds two context switches per invocation (in and out),
    the cost that separates Fig. 9's process curve from its thread curve.
    """
    if invocations_per_second < 0 or cpu_seconds_per_invocation < 0:
        raise SwitchError("rates and costs must be non-negative")
    per_invocation = cpu_seconds_per_invocation
    if as_process:
        per_invocation += 2 * CONTEXT_SWITCH_COST_S
    return invocations_per_second * per_invocation
