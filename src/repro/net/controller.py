"""SDN controller abstraction.

The seeder consults the controller for two things (SIII-B):

* ``phi_path`` — the set of switch paths carrying traffic matching a closed
  boolean filter formula (used to resolve ``place ... range`` directives);
* the global set of switches (used for ``place all`` / ``place any``).
"""

from __future__ import annotations

import itertools
from typing import List, Set, Tuple

from repro.errors import TopologyError
from repro.net.filters import Filter
from repro.net.topology import Topology


class SdnController:
    """Resolves filter expressions against a topology."""

    def __init__(self, topology: Topology,
                 max_host_pairs: int = 4096) -> None:
        self.topology = topology
        #: Guard against quadratic blow-up on unconstrained queries.
        self.max_host_pairs = max_host_pairs

    # ------------------------------------------------------------------
    # phi_path
    # ------------------------------------------------------------------
    def paths_matching(self, fil: Filter) -> Set[Tuple[int, ...]]:
        """All switch paths that can carry traffic matching ``fil``.

        Source/destination host candidates are derived from the filter's IP
        prefix constraints (unconstrained means "all hosts").  Each candidate
        (src, dst) pair contributes its ECMP shortest switch paths.
        """
        src_hosts = self._hosts_for(fil.src_prefixes())
        dst_hosts = self._hosts_for(fil.dst_prefixes())
        pairs = [(s, d) for s, d in itertools.product(src_hosts, dst_hosts)
                 if s != d]
        if len(pairs) > self.max_host_pairs:
            raise TopologyError(
                f"filter resolves to {len(pairs)} host pairs "
                f"(limit {self.max_host_pairs}); add IP constraints")
        paths: Set[Tuple[int, ...]] = set()
        for src, dst in pairs:
            paths.update(self.topology.switch_paths(src, dst))
        return paths

    def _hosts_for(self, prefixes: frozenset) -> List[int]:
        if not prefixes:
            return self.topology.host_ids
        hosts: Set[int] = set()
        for prefix in prefixes:
            hosts.update(self.topology.hosts_in_prefix(prefix))
        return sorted(hosts)

    # ------------------------------------------------------------------
    # Switch inventory
    # ------------------------------------------------------------------
    def all_switches(self) -> List[int]:
        return sorted(self.topology.switch_ids)
