"""CLI (`python -m repro.eval`) tests."""

from repro.eval.__main__ import VERBS, main


class TestCli:
    def test_help(self, capsys):
        assert main(["prog", "--help"]) == 0
        out = capsys.readouterr().out
        assert "verbs:" in out
        assert "scarecrow" in out

    def test_unknown_experiment(self, capsys):
        # The paper's figures print from their benchmarks/ tests, not here.
        assert main(["prog", "fig10"]) == 2
        assert "unknown verb" in capsys.readouterr().err

    def test_registry_covers_every_artifact(self):
        assert set(VERBS) == {"dashboard", "remediation", "profile",
                              "scarecrow"}
