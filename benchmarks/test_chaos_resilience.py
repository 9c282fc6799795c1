"""Chaos resilience: monitoring utility retained vs control-plane loss.

Shape: with the reliable command channel, the MU actually running stays
at 100% of the optimizer's plan even as control-message loss climbs to
40% — retransmissions absorb the loss (their count grows with the loss
rate) and no deploy command is ever lost for good.  This is the PR's
acceptance scenario: an unreliable control plane degrades control
*traffic*, not monitoring *coverage*.
"""

from repro.eval import (
    format_table,
    run_chaos_resilience,
    run_remediation_loop,
    run_scarecrow_chaos,
)


def test_chaos_resilience(once):
    points = once(run_chaos_resilience,
                  loss_rates=(0.0, 0.1, 0.2, 0.4),
                  duration_s=2.0)
    print("\nChaos resilience — MU retained vs control-message loss:")
    print(format_table(
        ["loss", "deployed", "MU retained", "retransmits", "dead letters",
         "msgs dropped"],
        [(f"{p.loss:.0%}", f"{p.seeds_deployed}/{p.seeds_expected}",
          f"{p.mu_retained:.0%}", p.retransmissions, p.lost_commands,
          p.messages_dropped) for p in points]))

    baseline = points[0]
    assert baseline.loss == 0.0
    assert baseline.seeds_deployed == baseline.seeds_expected
    assert baseline.retransmissions == 0

    for point in points:
        # Full convergence at every loss rate: all seeds running, the
        # whole planned MU realized, zero commands lost for good.
        assert point.seeds_deployed == point.seeds_expected
        assert point.mu_retained == 1.0
        assert point.lost_commands == 0

    # The chaos was real: messages were dropped, and the retry layer had
    # to work (monotonically) harder as loss grew.
    lossy = [p for p in points if p.loss > 0]
    assert all(p.messages_dropped > 0 for p in lossy)
    assert lossy[-1].retransmissions >= lossy[0].retransmissions
    assert lossy[-1].retransmissions > 0


def test_scarecrow_alert_lifecycle(once):
    """A mid-run switch partition must show up as a firing alert — and
    the alert must resolve once the partition heals and the seeder
    recovers the parked monitoring.
    """
    point = once(run_scarecrow_chaos)
    print("\nScarecrow — alert lifecycle around a 30 s switch partition:")
    print(format_table(
        ["sim t", "rule", "state"],
        [(f"{t:.1f}s", rule, state) for t, rule, state in point.alert_log]))

    # The MU-degradation alert fires within 30 sim-seconds of loss onset.
    assert point.firing_delay_s is not None
    assert point.firing_delay_s <= 30.0
    # The incident was real: seeds were actually parked by failover.
    assert point.parked_peak >= 1.0
    # And it resolves after the partition heals.
    assert point.resolved
    # The scraper ran for the whole scenario (1 s cadence, inclusive).
    assert point.scrapes >= point.duration_s


def test_mu_retained_under_remediation(once):
    """The closed loop pays for itself: under a gray failure the built-in
    detector cannot confirm, the remediation engine (drain on firing,
    restore on resolve) must retain strictly more delivery-weighted MU
    than detection alone — while a dry-run engine makes the identical
    decisions and changes nothing.  The default 80 s run outlives the
    TSDB's 60 s raw retention, so the heartbeat deltas that score
    delivery over the gray window are read from compacted points.
    """
    cmp = once(run_remediation_loop)
    print("\nRemediation — retained MU across engine modes:")
    print(format_table(
        ["mode", "victim", "MU retained", "decisions"],
        [(p.mode, p.victim, f"{p.mu_retained:.0%}", len(p.decisions))
         for p in (cmp.off, cmp.dry, cmp.active)]))

    # The gray failure hurt: detection alone lost real coverage.
    assert cmp.off.mu_retained < 0.9
    # Acting won it back — strictly better, and by a wide margin.
    assert cmp.active.mu_retained > cmp.off.mu_retained
    assert cmp.mu_gain > 0.1
    # The engine actually drained and restored the victim.
    executed = [r.action for r in cmp.active.records
                if r.decision == "executed"]
    assert "drain" in executed
    assert "restore" in executed
    # Dry-run fidelity: same decisions, untouched simulation.
    assert cmp.dry_matches_active
    assert cmp.dry_changed_nothing
    # Only the victim lost heartbeats: every healthy switch delivered all
    # of its beats over the gray window.
    for point in (cmp.off, cmp.dry, cmp.active):
        healthy = [share for sw, share in point.delivery.items()
                   if sw != point.victim]
        assert healthy and all(share == 1.0 for share in healthy)
