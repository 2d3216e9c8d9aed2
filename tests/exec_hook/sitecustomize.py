"""Record every ``src/repro`` function a process enters: the execution ratchet's hook.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one, so putting this directory on ``PYTHONPATH`` arms the
hook in a process and in every subprocess that inherits its environment.
It does nothing unless ``REPRO_ENTERED`` names a directory. When it does,
a ``sys.setprofile`` hook keeps each code object a ``call`` event enters,
and at exit the process writes one ``<path under src/repro>:<first line>``
line per ``src/repro`` code object to ``$REPRO_ENTERED/<pid>.txt``. The
first line is ``co_firstlineno``: a decorated function's first decorator.

``cProfile`` replaces a ``setprofile`` hook while it is enabled (the
wall-clock benchmark's counting pass). The hook re-arms itself when a
``cProfile.Profile`` is disabled, so a process loses only what it enters
while profiled.
"""

import atexit
import os
import sys

_OUT = os.environ.get("REPRO_ENTERED")

if _OUT:
    import cProfile

    _SRC = os.path.realpath(os.path.join(__file__, "..", "..", "..", "src", "repro")) + os.sep
    _entered = set()

    def _profile(frame, event, arg):
        if event == "call":
            _entered.add(frame.f_code)

    def _disable(self, _disable=cProfile.Profile.disable):
        _disable(self)
        sys.setprofile(_profile)

    def _write():
        sys.setprofile(None)
        lines, paths = set(), {}  # paths: realpath per file name, computed once
        for code in _entered:
            if code.co_filename not in paths:
                paths[code.co_filename] = os.path.realpath(code.co_filename)
            path = paths[code.co_filename]
            if path.startswith(_SRC):
                lines.add(f"{path[len(_SRC) :]}:{code.co_firstlineno}\n")
        with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "w", encoding="utf-8") as out:
            out.writelines(sorted(lines))

    cProfile.Profile.disable = _disable
    atexit.register(_write)
    sys.setprofile(_profile)
