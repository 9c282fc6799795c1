"""Task library tests: every Tab. I use case compiles and deploys."""

import pytest

from repro.almanac.compiler import compile_machine
from repro.almanac.parser import parse
from repro.core.deployment import FarmDeployment
from repro.net.topology import spine_leaf
from repro.tasks import ALMANAC_SOURCES, TASK_REGISTRY
from repro.tasks.ml_task import register_ml_support


class SingleSwitchController:
    def all_switches(self):
        return [1]

    def paths_matching(self, fil):
        return {(1,)}


class TestInventory:
    def test_sixteen_use_cases_plus_ml(self):
        # Tab. I lists 16 use cases (HHH counted once inherited, once full)
        assert len(ALMANAC_SOURCES) == 18
        assert len(TASK_REGISTRY) == 17

    @pytest.mark.parametrize("name", sorted(ALMANAC_SOURCES))
    def test_source_parses_and_compiles(self, name):
        source, machine = ALMANAC_SOURCES[name]
        program = parse(source)
        blueprint = compile_machine(
            program, machine, SingleSwitchController(),
            externals=_default_externals(name))
        assert len(blueprint.sites) == 1
        assert blueprint.initial_state

    @pytest.mark.parametrize("name", sorted(TASK_REGISTRY))
    def test_factory_deploys_and_runs(self, name):
        farm = FarmDeployment(topology=spine_leaf(1, 1, 0))
        if name == "ml_predict":
            for soil in farm.seeder.soils.values():
                register_ml_support(soil, iterations_cost=1e-5, dim=20)
        task = TASK_REGISTRY[name]()
        farm.submit(task)
        farm.settle(0.1)
        assert farm.seeder.deployed_seed_count() == 2
        farm.run(until=farm.sim.now + 0.3)  # event loops execute cleanly

    def test_loc_counts_are_substantial(self):
        """Tab. I reports tens of lines per use case; ours are comparable
        (we ship full implementations, not stubs)."""
        for name, (source, _machine) in ALMANAC_SOURCES.items():
            loc = len([line for line in source.splitlines()
                       if line.strip() and not line.strip().startswith("//")])
            assert loc >= 7, f"{name} suspiciously small ({loc} LoC)"


#: Maps source names whose default factory differs to a factory name.
_FACTORY_FOR_SOURCE = {
    "hierarchical_hh_inherited": ("hierarchical_hh", {"inherited": True}),
    "hierarchical_hh": ("hierarchical_hh", {"inherited": False}),
}


def _default_externals(name):
    factory_name, kwargs = _FACTORY_FOR_SOURCE.get(name, (name, {}))
    task = TASK_REGISTRY[factory_name](**kwargs)
    return dict(task.machines[0].externals)
