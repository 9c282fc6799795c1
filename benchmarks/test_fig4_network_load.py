"""Fig. 4: control-network load vs number of monitored ports.

Paper's shape: sFlow grows linearly with port count x probe rate (1 ms
sFlow being 10x the 10 ms line); Sonata sits below sFlow thanks to 75%
aggregation but still grows with the network; FARM's load is orders of
magnitude lower and nearly flat (seeds only speak when something changed
— ~1 packet/min per 100 ports).
"""

from repro.eval import run_fig4_network_load
from repro.eval.reporting import format_rate, format_table, linear_slope, series_by


def test_fig4_network_load(once):
    points = once(run_fig4_network_load,
                  port_counts=(100, 200, 400, 600),
                  duration_s=5.0)
    print("\nFig. 4 — control-plane load vs monitored ports:")
    print(format_table(
        ["system", "ports", "bytes/s", "msgs/s"],
        [(p.system, p.ports, format_rate(p.control_bytes_per_s),
          f"{p.control_msgs_per_s:.1f}") for p in points]))

    series = series_by(points, "system", "ports", "control_bytes_per_s")
    at_600 = {system: dict(xy)[600] for system, xy in series.items()}

    # FARM's bandwidth saving over the 1 ms collector pipeline is orders
    # of magnitude (the paper claims up to 10000x).
    assert at_600["sFlow 1ms"] / at_600["FARM"] > 100
    # sFlow 1ms ~ 10x sFlow 10ms (pure probing-rate ratio).
    ratio = at_600["sFlow 1ms"] / at_600["sFlow 10ms"]
    assert 5 < ratio < 20
    # Sonata's aggregation keeps it under sFlow 1ms but above FARM.
    assert at_600["FARM"] < at_600["Sonata"] < at_600["sFlow 1ms"]
    # Growth: sFlow slope is steep, FARM's is comparatively negligible.
    sflow_slope = linear_slope(series["sFlow 1ms"])
    farm_slope = linear_slope(series["FARM"])
    assert sflow_slope > 50 * max(farm_slope, 1e-9)
