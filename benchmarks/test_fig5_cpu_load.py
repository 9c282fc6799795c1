"""Fig. 5: switch CPU load of FARM vs sFlow, 10 ms accuracy.

Paper's shape: sFlow's CPU load is stable (it samples and forwards
without filtering); FARM's grows with the number of monitored flows (it
analyzes and keeps state) but stays below sFlow except at the smallest
flow count.
"""

from repro.eval import run_fig5_cpu_load
from repro.eval.reporting import format_table, series_by


def test_fig5_cpu_load(once):
    points = once(run_fig5_cpu_load,
                  flow_counts=(100, 200, 400, 600, 800, 1000),
                  duration_s=5.0)
    print("\nFig. 5 — switch CPU load vs monitored flows (10 ms):")
    print(format_table(
        ["system", "flows", "CPU %"],
        [(p.system, p.flows, f"{p.cpu_load_percent:.2f}")
         for p in points]))

    series = series_by(points, "system", "flows", "cpu_load_percent")
    farm = dict(series["FARM"])
    sflow = dict(series["sFlow"])
    # sFlow flat (within 10%); FARM grows with monitored state.
    assert abs(sflow[1000] - sflow[100]) / sflow[100] < 0.1
    assert farm[1000] > 2 * farm[100]
    # FARM cheaper than sFlow except possibly at the smallest size.
    for flows in (200, 400, 600, 800, 1000):
        assert farm[flows] < sflow[flows]
