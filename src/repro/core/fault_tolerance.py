"""Fault tolerance for FARM (the SVIII "avenues for future work" item).

Three mechanisms, composable and individually testable:

* **Heartbeats + failure detection** — every soil emits a periodic
  heartbeat on the control bus; the :class:`FaultToleranceManager` marks
  a switch *suspected* after ``miss_limit`` silent periods and only
  *failed* after ``confirm_limit`` (default ``2 * miss_limit``).  The
  grace period keeps a lossy-but-alive control bus (chaos injection,
  congested broker) from triggering spurious failovers: heartbeats are
  deliberately fire-and-forget — silence is the signal — so tolerance
  has to live in the detector, not in retransmission.
* **Checkpointing** — the manager periodically snapshots every deployed
  seed's inner state (the same serialization migration uses).
* **Failover** — when a switch fails, its capacity is removed from the
  placement problem and the optimizer re-places the displaced seeds on
  the survivors, restoring each from its last checkpoint; seeds whose
  only candidate was the failed switch (``place all`` pins) are parked
  until the switch recovers.

Seed-level crash containment lives in :class:`repro.core.soil.Soil` via
``crash_policy`` ("propagate" by default; "restart" re-instantiates a
seed that threw, up to ``max_seed_crashes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from repro.core.comm import BusMessage, ControlBus
from repro.core.seeder import Seeder
from repro.errors import DeploymentError
from repro.sim.engine import Simulator

HEARTBEAT_ENDPOINT = "seeder/heartbeats"


@dataclass
class SwitchHealth:
    switch_id: int
    last_heartbeat: float
    missed: int = 0
    suspected: bool = False
    suspected_at: Optional[float] = None
    failed: bool = False
    failed_at: Optional[float] = None
    #: Administratively parked (remediation `quarantine`): excluded from
    #: placement and its heartbeats are ignored until unquarantined.
    quarantined: bool = False
    quarantined_at: Optional[float] = None
    #: After an escalated failover, heartbeats do not auto-recover the
    #: switch until this sim-time — an escalation must stick long enough
    #: for the re-placement to pay off (gray switches keep heartbeating).
    holdoff_until: float = 0.0


class FaultToleranceManager:
    """Watches soils, checkpoints seeds, and drives failover."""

    def __init__(self, seeder: Seeder,
                 heartbeat_interval_s: float = 0.5,
                 miss_limit: int = 3,
                 confirm_limit: Optional[int] = None,
                 checkpoint_interval_s: float = 1.0) -> None:
        if miss_limit < 1:
            raise DeploymentError("miss_limit must be at least 1")
        if confirm_limit is None:
            confirm_limit = 2 * miss_limit
        if confirm_limit < miss_limit:
            raise DeploymentError(
                f"confirm_limit ({confirm_limit}) must be >= miss_limit "
                f"({miss_limit})")
        self.seeder = seeder
        self.sim: Simulator = seeder.sim
        self.bus: ControlBus = seeder.bus
        self.heartbeat_interval_s = heartbeat_interval_s
        self.miss_limit = miss_limit
        self.confirm_limit = confirm_limit
        self.health: Dict[int, SwitchHealth] = {}
        self.checkpoints: Dict[str, Dict[str, Any]] = {}
        #: seed ids displaced by a failure with nowhere to go.
        self.parked_seeds: Set[str] = set()
        # Observability: shared with the bus/seeder registry.
        self.metrics = self.bus.metrics
        self.tracer = self.bus.tracer
        self._m_failovers = self.metrics.counter(
            "farm_ft_failovers_total",
            "Switch failures confirmed and failed over.")
        self._m_recoveries = self.metrics.counter(
            "farm_ft_recoveries_total",
            "Failed switches returned to the pool.")
        self._m_suspicions_raised = self.metrics.counter(
            "farm_ft_suspicions_raised_total",
            "Switches marked suspected after miss_limit silent periods.")
        self._m_suspicions_cleared = self.metrics.counter(
            "farm_ft_suspicions_cleared_total",
            "Suspicions cleared by a late heartbeat (grace period wins).")
        self._g_parked = self.metrics.gauge(
            "farm_ft_parked_seeds",
            "Seeds displaced by failures with nowhere to go.")
        self._m_external_suspicions = self.metrics.counter(
            "farm_ft_external_suspicions_total",
            "Suspicions raised by outside evidence (e.g. alert rules).")
        self._m_quarantines = self.metrics.counter(
            "farm_ft_quarantines_total",
            "Switches administratively parked by remediation.")
        self._m_escalations = self.metrics.counter(
            "farm_ft_escalations_total",
            "Failovers forced by escalated external evidence.")
        self.bus.register(HEARTBEAT_ENDPOINT, self._on_heartbeat)
        #: Per-switch received-heartbeat counters, pre-created so the
        #: series exists from t=0 (a rate() over a gray switch must see
        #: the healthy baseline, not start at the first surviving beat).
        self._m_heartbeats: Dict[int, Any] = {}
        for switch_id, soil in seeder.soils.items():
            self.health[switch_id] = SwitchHealth(
                switch_id, last_heartbeat=self.sim.now)
            self._m_heartbeats[switch_id] = self.metrics.counter(
                "farm_ft_heartbeats_total",
                "Heartbeats received, per switch.",
                labels={"switch": str(switch_id)})
            self.sim.every(
                heartbeat_interval_s, self._emit_heartbeat, switch_id,
                label=f"heartbeat sw{switch_id}",
                cost_key=("ft", switch_id, None, "heartbeat"))
        self.sim.every(
            heartbeat_interval_s, self._check_health,
            start_after=heartbeat_interval_s * 1.5, label="ft-check",
            cost_key=("ft", None, None, "ft-check"))
        self.sim.every(
            checkpoint_interval_s, self._checkpoint_all, label="ft-ckpt",
            cost_key=("ft", None, None, "ft-ckpt"))

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def _emit_heartbeat(self, switch_id: int) -> None:
        soil = self.seeder.soils.get(switch_id)
        if soil is None or getattr(soil, "failed", False):
            return  # a failed switch is silent — that is the signal
        self.bus.send(f"soil/{switch_id}", HEARTBEAT_ENDPOINT,
                      {"switch": switch_id, "seeds": soil.num_seeds},
                      size_bytes=96)

    def _on_heartbeat(self, message: BusMessage) -> None:
        payload = message.payload
        health = self.health.get(int(payload["switch"]))
        if health is None:
            return
        counter = self._m_heartbeats.get(health.switch_id)
        if counter is not None:
            counter.inc()
        if health.quarantined:
            # A parked switch keeps talking; we keep not listening.
            return
        health.last_heartbeat = self.sim.now
        health.missed = 0
        if health.suspected:
            # A lossy-but-alive switch: the grace period did its job.
            health.suspected = False
            health.suspected_at = None
            self._m_suspicions_cleared.inc()
            tracer = self.tracer
            if tracer.enabled:
                tracer.instant(f"suspicion-cleared sw{health.switch_id}",
                               track="seeder", cat="fault-tolerance")
        if health.failed:
            if self.sim.now < health.holdoff_until:
                return  # escalated failover: recovery is on hold
            self._handle_recovery(health)

    def _check_health(self) -> None:
        deadline = self.heartbeat_interval_s * 1.5
        for health in self.health.values():
            if health.failed or health.quarantined:
                continue
            if self.sim.now - health.last_heartbeat > deadline:
                health.missed += 1
                health.last_heartbeat = self.sim.now  # count per period
                if (health.missed >= self.miss_limit
                        and not health.suspected):
                    health.suspected = True
                    health.suspected_at = self.sim.now
                    self._m_suspicions_raised.inc()
                    tracer = self.tracer
                    if tracer.enabled:
                        tracer.instant(f"suspected sw{health.switch_id}",
                                       track="seeder", cat="fault-tolerance",
                                       args={"missed": health.missed})
                if health.missed >= self.confirm_limit:
                    self._handle_failure(health)

    def external_suspicion(self, switch_id: int, source: str = "") -> bool:
        """Mark a switch *suspected* on outside evidence (e.g. a firing
        Scarecrow alert).  Evidence only: the suspicion is cleared by the
        next heartbeat like any other, and confirmation still requires
        ``confirm_limit`` silent periods — an alert rule can never fail
        over a healthy switch on its own.  Returns True if the switch
        was newly marked suspected.
        """
        health = self.health.get(switch_id)
        if health is None or health.failed or health.suspected:
            return False
        health.suspected = True
        health.suspected_at = self.sim.now
        self._m_external_suspicions.inc()
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"suspected sw{switch_id} (external)",
                           track="seeder", cat="fault-tolerance",
                           args={"source": source})
        return True

    def escalate_failure(self, switch_id: int, source: str = "",
                         recovery_holdoff_s: float = 10.0) -> bool:
        """Promote accumulated outside evidence into a failover *now*.

        This is the remediation engine's big hammer for switches whose
        heartbeats keep trickling through (gray failures): the two-stage
        detector never confirms them, so the caller — who has watched the
        evidence repeat — forces ``_handle_failure`` and holds off
        heartbeat-driven auto-recovery for ``recovery_holdoff_s`` so the
        re-placement isn't immediately undone by the next lucky beat.
        Returns True if a failover was actually performed.
        """
        health = self.health.get(switch_id)
        if health is None or health.failed or health.quarantined:
            return False
        health.holdoff_until = self.sim.now + recovery_holdoff_s
        self._m_escalations.inc()
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"escalated sw{switch_id}", track="seeder",
                           cat="fault-tolerance", args={"source": source})
        self._handle_failure(health)
        return True

    # ------------------------------------------------------------------
    # Quarantine (administrative park, driven by remediation)
    # ------------------------------------------------------------------
    def quarantine(self, switch_id: int, source: str = "") -> bool:
        """Park a switch: exclude it from placement, displace its seeds
        to survivors, and ignore its heartbeats until ``unquarantine``.

        Unlike a confirmed failure this never auto-recovers — a switch
        parked on purpose stays parked until the operator (or policy)
        says otherwise.  Returns True if the switch was newly parked.
        """
        health = self.health.get(switch_id)
        if health is None or health.quarantined or health.failed:
            return False
        health.quarantined = True
        health.quarantined_at = self.sim.now
        health.suspected = False
        health.suspected_at = None
        health.missed = 0
        self.seeder.failed_switches.add(switch_id)
        self._m_quarantines.inc()
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"quarantine sw{switch_id}", track="seeder",
                           cat="fault-tolerance", args={"source": source})
        self._displace_seeds(switch_id)
        self._redeploy_with_checkpoints()
        return True

    def unquarantine(self, switch_id: int) -> bool:
        """Return a parked switch to the pool and re-place globally."""
        health = self.health.get(switch_id)
        if health is None or not health.quarantined:
            return False
        health.quarantined = False
        health.quarantined_at = None
        health.missed = 0
        health.last_heartbeat = self.sim.now
        self.seeder.failed_switches.discard(switch_id)
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"unquarantine sw{switch_id}", track="seeder",
                           cat="fault-tolerance")
        revived = {seed_id for seed_id in self.parked_seeds
                   if self._can_place_now(seed_id)}
        self.parked_seeds -= revived
        self._g_parked.set(len(self.parked_seeds))
        self._redeploy_with_checkpoints()
        return True

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_all(self) -> None:
        for switch_id, soil in self.seeder.soils.items():
            health = self.health.get(switch_id)
            # Skip powered-off soils AND switches *we* consider failed: a
            # partitioned switch still runs its (now stale) seed copies,
            # and snapshotting those would overwrite the checkpoints the
            # failover restored from.
            if getattr(soil, "failed", False) \
                    or (health is not None
                        and (health.failed or health.quarantined)):
                continue
            for seed_id in list(soil.deployments):
                self.checkpoints[seed_id] = soil.snapshot_seed(seed_id)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def _handle_failure(self, health: SwitchHealth) -> None:
        health.failed = True
        health.failed_at = self.sim.now
        health.suspected = False
        health.suspected_at = None
        switch_id = health.switch_id
        self.seeder.failed_switches.add(switch_id)
        self._m_failovers.inc()
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"failover sw{switch_id}", track="seeder",
                           cat="fault-tolerance")
        # Displace the failed switch's seeds: they are gone; the seeder's
        # bookkeeping must reflect that before re-optimizing.  Then
        # re-place everything on the survivors, restoring checkpoints.
        self._displace_seeds(switch_id)
        self._redeploy_with_checkpoints()

    def _displace_seeds(self, switch_id: int) -> None:
        """Evict every seed booked on ``switch_id`` from the seeder's
        bookkeeping; seeds with no surviving candidate are parked."""
        displaced: List = []
        for task in self.seeder.tasks.values():
            for seed in task.seeds:
                if seed.switch == switch_id:
                    seed.switch = None
                    seed.allocation = {}
                    displaced.append(seed)
        for seed in displaced:
            alive = [n for n in seed.candidates
                     if n not in self.seeder.failed_switches]
            if not alive:
                self.parked_seeds.add(seed.seed_id)
        self._g_parked.set(len(self.parked_seeds))

    def _handle_recovery(self, health: SwitchHealth) -> None:
        """A failed switch heartbeats again: return it to the pool.

        Re-placement always runs — the recovered capacity changes the
        optimum even when nothing was parked.  Parked seeds (pinned to
        the dead switch) additionally come back to life here.
        """
        health.failed = False
        health.failed_at = None
        health.missed = 0
        health.holdoff_until = 0.0
        self.seeder.failed_switches.discard(health.switch_id)
        self._m_recoveries.inc()
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"recovery sw{health.switch_id}", track="seeder",
                           cat="fault-tolerance")
        revived = {seed_id for seed_id in self.parked_seeds
                   if self._can_place_now(seed_id)}
        self.parked_seeds -= revived
        self._g_parked.set(len(self.parked_seeds))
        self._redeploy_with_checkpoints()

    def _can_place_now(self, seed_id: str) -> bool:
        for task in self.seeder.tasks.values():
            for seed in task.seeds:
                if seed.seed_id == seed_id:
                    return any(n not in self.seeder.failed_switches
                               for n in seed.candidates)
        return False

    def _redeploy_with_checkpoints(self) -> None:
        snapshots = dict(self.checkpoints)
        self.seeder.reoptimize(restore_snapshots=snapshots)

    # ------------------------------------------------------------------
    # -- test/ops hooks -----------------------------------------------
    def alive_switches(self) -> List[int]:
        return sorted(h.switch_id for h in self.health.values()
                      if not h.failed and not h.quarantined)

    def failed_switch_ids(self) -> List[int]:
        return sorted(h.switch_id for h in self.health.values() if h.failed)

    def quarantined_switch_ids(self) -> List[int]:
        return sorted(h.switch_id for h in self.health.values()
                      if h.quarantined)


def fail_switch(seeder: Seeder, switch_id: int) -> None:
    """Test/ops helper: silence a switch as a crash would.

    The soil stops heartbeating and processing; deployed seed objects are
    lost (only checkpoints survive), exactly like a power failure.
    """
    seeder.soils[switch_id].power_off()


def recover_switch(seeder: Seeder, switch_id: int) -> None:
    """Bring a previously failed switch back (heartbeats resume)."""
    seeder.soils[switch_id].power_on()
