"""Sonata [6] and Newton [7]: stream-processing telemetry baselines.

Sonata splits a dataflow query between the switch data plane (stateless
reduce over a tuple window) and a Spark Streaming collector (micro-batched
"discretized streams" [46]).  Its per-window records still flow to the
centralized stream processor, whose window + micro-batch + job latency
dominates responsiveness (the 3427 ms of Tab. 4).  Sonata "does not
support merging of streams from several switches" — each query instance
detects only switch-local HHs.

Newton inherits the streaming design but adds (a) dynamic query updates
without switch reboot and (b) stream merging at the collector; its
responsiveness remains Sonata-class because processing stays centralized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.comm import ControlBus
from repro.sim.engine import Simulator
from repro.switchsim.chassis import Switch
from repro.switchsim.stratum import SwitchDriver

#: Sonata's dataflow tuple record on the wire.
RECORD_BYTES = 96

#: Default timing (calibrated to the paper's measured 3427 ms end-to-end:
#: tuple window + Spark micro-batch + job scheduling/processing).
DEFAULT_TUPLE_WINDOW_S = 1.0
DEFAULT_SPARK_BATCH_S = 2.0
DEFAULT_JOB_LATENCY_S = 0.4


@dataclass
class SonataQuery:
    """A compiled Sonata query (the data-plane reduce + stream filter).

    ``key`` extracts the grouping key from a port-stat record; the
    data-plane part pre-aggregates per key over the tuple window, and
    ``aggregation_factor`` of the records are coalesced before export
    (SVI-B-b runs Sonata "assuming an aggregation factor of 75%").
    """

    name: str = "heavy_hitter"
    threshold_bps: float = 1e7
    aggregation_factor: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.aggregation_factor < 1.0:
            raise ValueError(
                f"aggregation factor out of range: {self.aggregation_factor}")


class SonataSwitchPipeline:
    """The P4 half: per-window reduce in the data plane, export to Spark."""

    def __init__(self, sim: Simulator, switch: Switch, driver: SwitchDriver,
                 bus: ControlBus, collector_endpoint: str,
                 query: SonataQuery,
                 tuple_window_s: float = DEFAULT_TUPLE_WINDOW_S) -> None:
        self.sim = sim
        self.switch = switch
        self.driver = driver
        self.bus = bus
        self.collector_endpoint = collector_endpoint
        self.query = query
        self.tuple_window_s = tuple_window_s
        self.records_sent = 0
        self._last_bytes: Dict[int, float] = {}
        self._last_time = sim.now
        self._timer = sim.every(tuple_window_s, self._flush_window,
                                label=f"sonata@{switch.switch_id}")
        # Mirroring samples to the stream processor rides the PCIe path;
        # the data-plane reduce keeps only one record per key per window.
        switch.pcie.register_poller(
            "sonata-pipeline",
            switch.asic.num_ports * RECORD_BYTES / tuple_window_s)

    def update_query(self, query: SonataQuery) -> None:
        """Sonata requires recompiling the data plane for a new query; the
        pipeline restarts and loses its window state (Newton avoids this)."""
        self.query = query
        self._last_bytes.clear()
        self._last_time = self.sim.now

    def _flush_window(self) -> None:
        stats, latency = self.driver.read_port_counters()
        now = self.sim.now
        records: List[dict] = []
        for stat in stats:
            prev = self._last_bytes.get(stat.port, 0.0)
            window_bytes = stat.tx_bytes - prev
            self._last_bytes[stat.port] = stat.tx_bytes
            records.append({"switch": self.switch.switch_id,
                            "port": stat.port,
                            "window_bytes": window_bytes,
                            "window_s": now - self._last_time})
        self._last_time = now
        # Aggregation coalesces a fraction of the records before export.
        keep = max(1, int(round(len(records) * (1.0 - self.query.aggregation_factor))))
        exported = records[:keep]
        exported[0] = dict(exported[0])
        exported[0]["coalesced"] = len(records) - keep
        for record in exported:
            self.records_sent += 1
            self.bus.send(f"sonata/{self.switch.switch_id}",
                          self.collector_endpoint, record,
                          size_bytes=RECORD_BYTES, extra_latency_s=latency)


class SparkStreamingCollector:
    """The Spark Streaming half: micro-batched query evaluation.

    Records queue until the next micro-batch boundary; the batch job runs
    for ``job_latency_s`` before results (detections) materialize.
    """

    def __init__(self, sim: Simulator, bus: ControlBus, query: SonataQuery,
                 spark_batch_s: float = DEFAULT_SPARK_BATCH_S,
                 job_latency_s: float = DEFAULT_JOB_LATENCY_S,
                 endpoint: str = "sonata-collector",
                 merge_streams: bool = False) -> None:
        self.sim = sim
        self.bus = bus
        self.query = query
        self.job_latency_s = job_latency_s
        self.endpoint = endpoint
        #: Newton merges streams across switches; Sonata cannot (SVII).
        self.merge_streams = merge_streams
        self._batch: List[dict] = []
        self.records_received = 0
        self.detections: List[Tuple[float, int, int]] = []
        self._detected: Set[Tuple[int, int]] = set()
        bus.register(endpoint, self._on_record)
        sim.every(spark_batch_s, self._run_batch, label="spark-batch")

    def _on_record(self, message) -> None:
        self.records_received += 1
        self._batch.append(message.payload)

    def _run_batch(self) -> None:
        batch, self._batch = self._batch, []
        if not batch:
            return
        self.sim.schedule(self.job_latency_s, self._finish_job, batch,
                          label="spark-job")

    def _finish_job(self, batch: List[dict]) -> None:
        # A micro-batch can hold several tuple windows of the same key;
        # take the max rate per (switch, key) so time windows are not
        # double counted, then (for Newton) sum across switches.
        per_switch: Dict[Tuple[int, int], float] = {}
        for record in batch:
            window = record.get("window_s") or 1.0
            source = (record["switch"], record["port"])
            rate = record["window_bytes"] / window
            per_switch[source] = max(per_switch.get(source, 0.0), rate)
        rates: Dict[Tuple[int, int], float] = {}
        for (switch, port), rate in per_switch.items():
            key = (-1, port) if self.merge_streams else (switch, port)
            rates[key] = rates.get(key, 0.0) + rate
        for key, rate in rates.items():
            if rate >= self.query.threshold_bps:
                if key not in self._detected:
                    self._detected.add(key)
                    self.detections.append((self.sim.now, key[0], key[1]))
            else:
                self._detected.discard(key)

    def first_detection_time(self) -> Optional[float]:
        return self.detections[0][0] if self.detections else None


class SonataDeployment:
    """Pipelines on every switch + one Spark collector."""

    def __init__(self, sim: Simulator,
                 switches: List[Tuple[Switch, SwitchDriver]],
                 bus: ControlBus, query: SonataQuery,
                 tuple_window_s: float = DEFAULT_TUPLE_WINDOW_S,
                 spark_batch_s: float = DEFAULT_SPARK_BATCH_S,
                 job_latency_s: float = DEFAULT_JOB_LATENCY_S,
                 merge_streams: bool = False,
                 endpoint: str = "sonata-collector") -> None:
        self.collector = SparkStreamingCollector(
            sim, bus, query, spark_batch_s=spark_batch_s,
            job_latency_s=job_latency_s, merge_streams=merge_streams,
            endpoint=endpoint)
        self.pipelines = [
            SonataSwitchPipeline(sim, switch, driver, bus,
                                 self.collector.endpoint, query,
                                 tuple_window_s=tuple_window_s)
            for switch, driver in switches]


class NewtonDeployment(SonataDeployment):
    """Newton: Sonata + stream merging + dynamic query updates."""

    def __init__(self, sim: Simulator,
                 switches: List[Tuple[Switch, SwitchDriver]],
                 bus: ControlBus, query: SonataQuery, **kwargs) -> None:
        kwargs.setdefault("merge_streams", True)
        kwargs.setdefault("endpoint", "newton-collector")
        super().__init__(sim, switches, bus, query, **kwargs)
        self.query_updates = 0

    def update_query(self, query: SonataQuery) -> None:
        """Dynamic query update without pipeline restart (Newton's
        contribution over Sonata): window state survives."""
        self.collector.query = query
        for pipeline in self.pipelines:
            pipeline.query = query  # no update_query(): no state loss
        self.query_updates += 1
