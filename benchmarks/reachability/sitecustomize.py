"""Record which ``src/repro`` functions a Python process calls.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one, so putting this directory on ``PYTHONPATH`` loads it
into every interpreter a driver starts, child processes included.  When
``REPRO_REACH_DIR`` names a directory, the profile hook is installed on
this thread and on every thread started later, and at exit the process
writes ``<pid>.txt`` there: one ``<path>\t<first line>`` per distinct
code object under ``src/repro``.  Without the variable it does nothing.
"""

import os

_OUT = os.environ.get("REPRO_REACH_DIR")

if _OUT:
    import atexit
    import sys
    import threading

    _SRC = os.path.realpath(
        os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
    )
    _seen = set()

    def _profile(frame, event, arg):
        if event == "call":
            _seen.add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        threading.setprofile(None)
        lines = set()
        for code in list(_seen):
            path = os.path.realpath(code.co_filename)
            if path.startswith(_SRC + os.sep):
                rel = os.path.relpath(path, os.path.dirname(os.path.dirname(_SRC)))
                lines.add(f"{rel}\t{code.co_firstlineno}\n")
        with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "w") as handle:
            handle.writelines(sorted(lines))

    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
