"""Almanac compilation pipeline.

Source text → parse → flatten inheritance → bind deployment constants →
static analyses → :class:`MachineBlueprint`, the unit the seeder deploys.
A blueprint carries everything the placement optimizer and the soils need:

* the flattened machine and auxiliary functions (executable + XML payload);
* resolved seed sites (``S^m`` with per-seed ``N^s``);
* per-state utility analyses (``C^s``, ``u^s``);
* poll-variable analyses (``y.ival``, ``y.what``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.almanac import astnodes as ast
from repro.almanac.analysis import (
    ConstEnv,
    PollVarInfo,
    ResolvedSeedSite,
    analyze_poll_var,
    analyze_util,
    resolve_placements,
)
from repro.almanac.machine import CompiledMachine, flatten_machine
from repro.almanac.parser import parse
from repro.almanac.poly import PiecewiseUtility
from repro.almanac.xmlcodec import encode_program
from repro.errors import AlmanacAnalysisError
from repro.switchsim.chassis import RESOURCE_TYPES


@dataclass
class MachineBlueprint:
    """A machine, analyzed and ready for placement + deployment."""

    machine_name: str
    compiled: CompiledMachine
    externals: Dict[str, object]
    sites: List[ResolvedSeedSite]
    state_utilities: Dict[str, PiecewiseUtility]
    poll_vars: List[PollVarInfo]
    xml_payload: str

    @property
    def initial_state(self) -> str:
        return self.compiled.initial_state

    def utility_for_state(self, state: str) -> PiecewiseUtility:
        try:
            return self.state_utilities[state]
        except KeyError:
            raise AlmanacAnalysisError(
                f"machine {self.machine_name!r} has no state {state!r}"
            ) from None


def compile_machine(program: ast.Program, machine_name: str,
                    controller,
                    externals: Optional[Mapping[str, object]] = None,
                    resource_names: Sequence[str] = RESOURCE_TYPES,
                    ) -> MachineBlueprint:
    """Run the full SIII-B pipeline for one machine of a parsed program."""
    compiled = flatten_machine(program, machine_name)
    # Build a synthetic declaration carrying the *flattened* variables and
    # placements so inherited externals and place directives participate.
    flat_decl = ast.MachineDecl(
        name=machine_name,
        placements=compiled.placements,
        var_decls=compiled.var_decls,
        states=[],
        events=[],
    )
    env = ConstEnv.for_machine(flat_decl, externals)
    sites = resolve_placements(flat_decl, env, controller)
    state_utilities = {
        name: analyze_util(state.util, env, resource_names)
        for name, state in compiled.states.items()
    }
    poll_vars = [analyze_poll_var(decl, env, resource_names)
                 for decl in compiled.trigger_decls]
    # The deployment payload is the whole program: the soil needs parent
    # machines (extends chains) and auxiliary functions to re-flatten.
    xml_payload = encode_program(program)
    return MachineBlueprint(
        machine_name=machine_name,
        compiled=compiled,
        externals=dict(externals or {}),
        sites=sites,
        state_utilities=state_utilities,
        poll_vars=poll_vars,
        xml_payload=xml_payload,
    )


def compile_source(source: str, machine_name: Optional[str] = None,
                   controller=None,
                   externals: Optional[Mapping[str, object]] = None,
                   resource_names: Sequence[str] = RESOURCE_TYPES,
                   ) -> MachineBlueprint:
    """Parse and compile source.  When ``machine_name`` is omitted, the
    program must contain exactly one machine."""
    program = parse(source)
    if machine_name is None:
        if len(program.machines) != 1:
            raise AlmanacAnalysisError(
                f"program defines {len(program.machines)} machines; name one")
        machine_name = program.machines[0].name
    if controller is None:
        controller = _SingleSwitchController()
    return compile_machine(program, machine_name, controller, externals,
                           resource_names)


class _SingleSwitchController:
    """Fallback controller for compiling without a topology (tests, docs)."""

    def all_switches(self) -> List[int]:
        return [1]

    def paths_matching(self, fil) -> set:
        return {(1,)}
