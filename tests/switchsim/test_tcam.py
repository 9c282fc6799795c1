"""TCAM tests: region division, capacity, rule lifecycle."""

import pytest

from repro.errors import TcamError
from repro.net import filters as flt
from repro.switchsim.tcam import (
    FORWARDING,
    MONITORING,
    RuleAction,
    Tcam,
    TcamRule,
)


class TestDivision:
    def test_default_split(self):
        tcam = Tcam(capacity=100, monitoring_share=0.25)
        assert tcam.available(MONITORING) == 25
        assert tcam.available(FORWARDING) == 75

    def test_region_capacity_enforced(self):
        tcam = Tcam(capacity=8, monitoring_share=0.25)  # 2 monitoring slots
        tcam.install(TcamRule(flt.DstPortFilter(1), region=MONITORING))
        tcam.install(TcamRule(flt.DstPortFilter(2), region=MONITORING))
        with pytest.raises(TcamError):
            tcam.install(TcamRule(flt.DstPortFilter(3), region=MONITORING))
        # Forwarding region is unaffected by the monitoring overflow.
        tcam.install(TcamRule(flt.DstPortFilter(4), region=FORWARDING))

    def test_bad_parameters(self):
        with pytest.raises(TcamError):
            Tcam(capacity=0)
        with pytest.raises(TcamError):
            Tcam(capacity=10, monitoring_share=1.5)
        tcam = Tcam(capacity=10)
        with pytest.raises(TcamError):
            tcam.install(TcamRule(flt.TrueFilter(), region="nonsense"))


class TestLifecycle:
    def test_install_assigns_ids_and_time(self):
        tcam = Tcam(capacity=10)
        rule = TcamRule(flt.TrueFilter())
        rule_id = tcam.install(rule, now=4.2)
        assert rule.rule_id == rule_id
        assert rule.installed_at == 4.2
        assert tcam.get(rule_id) is rule

    def test_remove_by_id(self):
        tcam = Tcam(capacity=10)
        rule_id = tcam.install(TcamRule(flt.TrueFilter()))
        removed = tcam.remove(rule_id)
        assert removed.rule_id == rule_id
        with pytest.raises(TcamError):
            tcam.get(rule_id)
        with pytest.raises(TcamError):
            tcam.remove(rule_id)

    def test_find_returns_highest_priority_exact_pattern(self):
        tcam = Tcam(capacity=10)
        pattern = flt.DstPortFilter(80)
        tcam.install(TcamRule(pattern, priority=1))
        best = TcamRule(pattern, priority=7)
        tcam.install(best)
        assert tcam.find(pattern) is best
        assert tcam.find(flt.DstPortFilter(99)) is None

    def test_rules_listing_filters_by_region(self):
        tcam = Tcam(capacity=10, monitoring_share=0.5)
        tcam.install(TcamRule(flt.TrueFilter(), region=MONITORING))
        tcam.install(TcamRule(flt.TrueFilter(), region=FORWARDING))
        assert len(tcam.rules()) == 2
        assert len(tcam.rules(MONITORING)) == 1
