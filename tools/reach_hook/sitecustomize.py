"""Profile hook of ``tools/reach.py``: log each ``src/`` function on first call.

``reach.py`` puts this directory on ``PYTHONPATH``, so every interpreter its
manifest starts imports it (the serve daemon, spawned workers and ``python -m
repro.cli`` children included).  Lines go straight to a per-interpreter file,
since pool workers leave through ``os._exit``; forked ones append to their
parent's.
"""

import os
import sys
import threading

if os.environ.get("REACH_OUT"):
    _seen = set()
    _log = open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.tsv"),
                "a", buffering=1)

    def _profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code not in _seen:
            _seen.add(code)
            if "/src/repro/" in code.co_filename:
                _log.write(f"{code.co_filename}\t{code.co_qualname}"
                           f"\t{code.co_firstlineno}\n")

    threading.setprofile(_profile)
    sys.setprofile(_profile)
