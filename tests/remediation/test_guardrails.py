"""Guardrail admission control, exercised with explicit timestamps."""

from repro.remediation import GuardrailConfig, Guardrails


def make(**overrides):
    # Tests drive `now` explicitly, so no clock is wired; defaults are
    # relaxed per-test so each check can be exercised in isolation.
    return Guardrails(config=GuardrailConfig(**overrides))


class TestCooldown:
    def test_repeat_inside_cooldown_blocked(self):
        g = make(default_cooldown_s=10.0, flap_limit=99)
        assert g.check("drain", 1, now=0.0) is None
        g.commit("drain", 1, now=0.0)
        g.commit("restore", 1, now=1.0)
        assert g.check("drain", 1, now=5.0) == "cooldown"
        assert g.check("drain", 1, now=10.0) is None

    def test_cooldown_is_per_action_and_switch(self):
        g = make(default_cooldown_s=10.0, max_active=4, blast_radius=4,
                 flap_limit=99)
        g.commit("drain", 1, now=0.0)
        # Different switch: fresh cooldown slate.
        assert g.check("drain", 2, now=1.0) is None
        # Different action on the same switch: "restore" has its own
        # timer (and is non-disruptive, so already-active doesn't apply).
        assert g.check("restore", 1, now=1.0) is None

    def test_per_action_override(self):
        g = make(cooldown_s={"escalate": 2.0}, default_cooldown_s=60.0,
                 flap_limit=99)
        g.commit("escalate", 1, now=0.0)
        g.commit("restore", 1, now=0.5)
        assert g.check("escalate", 1, now=1.0) == "cooldown"
        assert g.check("escalate", 1, now=2.5) is None


class TestConcurrencyAndBlast:
    def test_one_open_intervention_per_switch(self):
        g = make(max_active=4, blast_radius=4, flap_limit=99)
        g.commit("drain", 1, now=0.0)
        assert g.check("drain", 1, now=100.0) == "already-active"
        assert g.check("escalate", 1, now=100.0) == "already-active"

    def test_global_budget(self):
        g = make(max_active=1, blast_radius=4, flap_limit=99)
        g.commit("drain", 1, now=0.0)
        assert g.check("drain", 2, now=0.0) == "budget"
        g.commit("restore", 1, now=1.0)
        assert g.check("drain", 2, now=1.0) is None

    def test_blast_radius_counts_distinct_switches(self):
        g = make(max_active=4, blast_radius=1, blast_window_s=60.0,
                 default_cooldown_s=1.0, flap_limit=99)
        g.commit("drain", 1, now=0.0)
        g.commit("restore", 1, now=1.0)
        # Switch 1 is already inside the blast window -> re-draining it
        # is fine, but touching a *second* switch is not.
        assert g.check("drain", 1, now=5.0) is None
        assert g.check("drain", 2, now=5.0) == "blast-radius"
        # Window expiry frees the budget.
        assert g.check("drain", 2, now=70.0) is None

    def test_non_disruptive_actions_do_not_consume_budget(self):
        g = make(max_active=1, flap_limit=99)
        g.commit("restore", 1, now=0.0)
        assert g.active_count() == 0
        assert g.check("drain", 2, now=0.0) is None


class TestFlapSuppression:
    def test_flapping_switch_is_suppressed(self):
        g = make(default_cooldown_s=4.0, flap_limit=2, flap_window_s=60.0,
                 max_active=4, blast_radius=4)
        g.commit("drain", 1, now=0.0)
        g.commit("restore", 1, now=2.0)
        assert g.check("drain", 1, now=6.0) is None
        g.commit("drain", 1, now=6.0)
        g.commit("restore", 1, now=8.0)
        # Two interventions inside the window: third attempt suppressed
        # even though its cooldown has elapsed.
        assert g.check("drain", 1, now=20.0) == "flap"
        # ...and stays suppressed until the window slides past.
        assert g.check("drain", 1, now=59.0) == "flap"
        assert g.check("drain", 1, now=70.0) is None

    def test_flap_windows_are_per_switch(self):
        g = make(default_cooldown_s=1.0, flap_limit=2, flap_window_s=60.0,
                 max_active=4, blast_radius=4)
        for t in (0.0, 4.0):
            g.commit("drain", 1, now=t)
            g.commit("restore", 1, now=t + 1.0)
        assert g.check("drain", 1, now=10.0) == "flap"
        assert g.check("drain", 2, now=10.0) is None


class TestRestore:
    def test_restore_without_open_intervention_is_idle(self):
        g = make()
        assert g.check("restore", 1, now=5.0) == "idle"

    def test_restore_pops_active(self):
        g = make(flap_limit=99)
        g.commit("drain", 1, now=0.0)
        assert g.active_count() == 1
        assert g.check("restore", 1, now=1.0) is None
        g.commit("restore", 1, now=1.0)
        assert g.active_count() == 0
        assert g.check("restore", 1, now=2.0) == "idle"

    def test_restore_has_its_own_cooldown(self):
        g = make(default_cooldown_s=10.0, cooldown_s={"drain": 2.0},
                 flap_limit=99)
        g.commit("drain", 1, now=0.0)
        g.commit("restore", 1, now=1.0)
        g.commit("drain", 1, now=3.0)
        # A second restore too soon after the first: blocked by spacing.
        assert g.check("restore", 1, now=8.0) == "cooldown"
        assert g.check("restore", 1, now=11.0) is None
