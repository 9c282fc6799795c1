"""The semantics suite of test_interpreter.py on the reference tree-walker.

The imported classes are collected a second time under this module, with
``instance()`` building a :class:`ReferenceInterpreter`.
"""

import pytest

from tests.almanac import test_interpreter
from tests.almanac.reference_interpreter import ReferenceInterpreter
from tests.almanac.test_interpreter import (  # noqa: F401
    TestBasicExecution,
    TestInheritance,
    TestMachineLevelEvents,
    TestMigrationSnapshot,
    TestStdlibIntegration,
    TestTriggers,
    TestUserFunctions,
)


@pytest.fixture(autouse=True)
def _reference_executor(monkeypatch):
    monkeypatch.setattr(test_interpreter, "EXECUTOR", ReferenceInterpreter)
