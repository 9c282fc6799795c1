"""Call recorder for ``tools/reachability.py run``.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that has one, so putting this directory on ``PYTHONPATH``
hooks every interpreter an entry point starts, subprocesses included.
With ``REACHABILITY_DUMPS`` set, a profile hook notes each code object
that starts executing, and at exit the ones under ``REACHABILITY_SRC``
are written as ``[file, first line, name]`` rows to one JSON file per
process in the dump directory.  Without it, nothing is installed.
"""

import atexit
import json
import os
import sys
import threading

_DUMPS = os.environ.get("REACHABILITY_DUMPS")

if _DUMPS:
    _SRC = os.path.join(os.path.realpath(os.environ["REACHABILITY_SRC"]), "")
    _seen = {}  # id(code) -> code; the value pins the id

    def _hook(frame, event, arg, _seen=_seen):
        if event == "call":
            code = frame.f_code
            if id(code) not in _seen:
                _seen[id(code)] = code

    def _dump():
        sys.setprofile(None)
        rows = sorted({(os.path.realpath(code.co_filename),
                        code.co_firstlineno, code.co_name)
                       for code in _seen.values()
                       if os.path.realpath(code.co_filename)
                       .startswith(_SRC)})
        path = os.path.join(_DUMPS, f"calls-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(rows, handle)

    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
