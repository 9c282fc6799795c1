"""Public-API integrity: every ``__all__`` name resolves and is importable."""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.net",
    "repro.switchsim",
    "repro.almanac",
    "repro.core",
    "repro.obs",
    "repro.placement",
    "repro.baselines",
    "repro.tasks",
    "repro.eval",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_version_present():
    import repro
    assert repro.__version__ == "1.0.0"


def test_every_public_module_has_docstring():
    import pkgutil
    import repro
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if not (module.__doc__ or "").strip():
            missing.append(info.name)
    assert missing == []


def test_no_environment_switches_in_the_package():
    # A reference implementation is reachable from a test by constructing
    # it, never from a deployment by configuration (docs/performance.md).
    import repro
    offenders = [
        str(path) for path in Path(repro.__file__).parent.rglob("*.py")
        if any(token in path.read_text()
               for token in ("os.environ", "getenv"))]
    assert offenders == []


def test_every_registered_metric_is_in_the_catalogue():
    # Names are the only way to read a counter (registry.value /
    # sum_values), so docs/observability.md's catalogue is public surface.
    import repro
    registration = re.compile(
        r'\.(?:counter|gauge|histogram)\(\s*"((?:farm|scarecrow)_\w+)"')
    names = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        names.update(registration.findall(path.read_text()))
    assert len(names) > 50, "the scan no longer finds the registrations"
    catalogue = (REPO / "docs" / "observability.md").read_text()
    assert sorted(name for name in names
                  if not re.search(rf"`{name}[`{{]", catalogue)) == []


def test_every_catalogued_metric_is_emitted():
    # The converse: a catalogue row names something the code still emits.
    # A string literal, not a registration: a Scarecrow collector emits
    # farm_trace_dropped_total without registering it.
    import repro
    source = "\n".join(path.read_text() for path
                       in Path(repro.__file__).parent.rglob("*.py"))
    catalogue = (REPO / "docs" / "observability.md").read_text()
    names = set(re.findall(r"`((?:farm|scarecrow)_\w+)[`{]", catalogue))
    assert len(names) > 50, "the scan no longer finds the catalogue"
    assert sorted(name for name in names if f'"{name}"' not in source) == []


def test_ci_names_existing_paths_and_nothing_names_the_deleted_harness():
    # Plain text scan (CI does not install a YAML parser).
    ci = "\n".join(path.read_text() for path in sorted(
        (REPO / ".github" / "workflows").glob("*.yml")))
    named = {path.rstrip(".") for path in re.findall(
        r"\b((?:benchmarks|examples|src|tests|tools)/[\w./-]+)", ci)}
    assert "benchmarks/farmbench/run.py" in named
    assert "tools/reachability.py" in named
    assert sorted(p for p in named if not (REPO / p).exists()) == []
    # benchmarks/perf/ went in PR 18: farmbench measures, tier-1 gates
    # (docs/performance.md, "Measuring").  Prose may keep the history.
    code = [REPO / ".gitignore", *REPO.glob("*.py")]
    for top in (".github", "benchmarks", "examples", "src", "tests",
                "tools"):
        code += [path for path in (REPO / top).rglob("*")
                 if path.suffix in (".py", ".yml")]
    offenders = [
        str(path.relative_to(REPO)) for path in code
        if path != Path(__file__).resolve()
        and any(token in path.read_text()
                for token in ("run_perf", "BENCH_perf"))]
    assert offenders == []


def test_production_never_reaches_the_tree_walker(monkeypatch):
    from repro.almanac import MachineInstance
    from repro.core import FarmDeployment
    from repro.net.topology import spine_leaf
    from repro.net.traffic import HeavyHitterWorkload
    from repro.tasks import make_heavy_hitter_task
    from tests.almanac.reference_interpreter import ReferenceInterpreter

    def unreachable(*args, **kwargs):
        raise AssertionError("tree-walker reached from a deployment")

    for name in ("_dispatch", "_exec_block", "_exec", "_exec_assign",
                 "_eval", "_eval_filter_atom", "_eval_binop", "_eval_call",
                 "_call_function"):
        assert not hasattr(MachineInstance, name)
        monkeypatch.setattr(ReferenceInterpreter, name, unreachable)
    farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
    task = make_heavy_hitter_task(threshold=5e6, accuracy_ms=10)
    farm.submit(task)
    farm.settle()
    farm.start_workload(
        HeavyHitterWorkload(num_ports=20, hh_ratio=0.1, hh_rate_bps=1e8,
                            churn_interval=0.5, seed=7),
        farm.topology.leaf_ids[0])
    farm.run(until=farm.sim.now + 1.0)
    assert task.harvester.detections


def _ledger():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "reachability", REPO / "tools" / "reachability.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reachability_allowlist_matches_the_source():
    # The half of `tools/reachability.py report` that needs no call dumps
    # (the nightly job runs the rest): every allowlisted function is still
    # defined, none waits on ROADMAP item 4 any more, and each oracle names
    # a test file that uses it.
    ledger = _ledger()
    entries = ledger.read_allowlist(ledger.ALLOWLIST)
    defined = set()
    for path in ledger.PACKAGE.rglob("*.py"):
        module = ledger.module_name(path)
        defined.add(f"{module}:{ledger.MODULE_ENTRY}")
        defined.update(f"{module}:{fn.qualname}"
                       for fn in ledger.functions(path))
    assert sorted(key for key in entries if key not in defined) == []
    assert sorted(key for key, entry in entries.items()
                  if entry.bucket == "pending"
                  and re.search(r"\bitem 4\b", entry.note)) == []
    for key, entry in entries.items():
        if entry.bucket != "oracle":
            continue
        symbol = key.split(":", 1)[1].split(".", 1)[0]
        (test_file,) = re.findall(r"\btests/\S+\.py\b", entry.note)
        assert symbol in (REPO / test_file).read_text(), key
