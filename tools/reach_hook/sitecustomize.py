"""Profile hook of ``tools/reach.py``: log each ``src/`` function on first
call, and each of its defaulted parameters the first time a call binds it to
a value that differs from the default.

``reach.py`` puts this directory on ``PYTHONPATH``, so every interpreter its
manifest starts imports it (the serve daemon, spawned workers and ``python -m
repro.cli`` children included).  Lines go straight to a per-interpreter file,
since pool workers leave through ``os._exit``; forked ones append to their
parent's.  ``C`` lines are calls, ``V`` lines varied options:

* a default passed explicitly is not a second value, and values compare as
  Python compares them (``0 == False``, ``1 == 1.0``); a comparison that
  raises or is ambiguous (an array) counts as different;
* a dataclass is seen through its generated ``__init__`` and logged under
  the class that declares the field, with first line 0; anything passed for
  a ``default_factory`` field counts as different (no factory is called);
* a generator's or coroutine's resumes fire ``call`` again with whatever the
  body rebound its parameters to: only the entry at its first ``RESUME``
  is looked at.
"""

import dataclasses
import dis
import gc
import inspect
import os
import sys
import threading
import types

if os.environ.get("REACH_OUT"):
    #: id(code) -> the code itself (nothing left to watch) or
    #: (code, entry offset of a resumable, {param: default} still unvaried, {param: site})
    _pending = {}
    _log = open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.tsv"),
                "a", buffering=1)
    _RESUMABLE = (inspect.CO_GENERATOR | inspect.CO_COROUTINE
                  | inspect.CO_ASYNC_GENERATOR)

    def _same(value, default):
        try:
            return value is default or bool(value == default)
        except Exception:  # an array's ambiguous truth, a foreign __eq__
            return False

    def _defaults(code):
        """``{param: default}`` of the function built from ``code``."""
        for function in gc.get_referrers(code):
            if isinstance(function, types.FunctionType) and function.__code__ is code:
                positional = function.__defaults__ or ()
                names = code.co_varnames[:code.co_argcount]
                found = dict(zip(names[len(names) - len(positional):], positional))
                found.update(function.__kwdefaults__ or {})
                return found
        return {}

    def _first_sight(frame, code):
        """Log the call; return what is left to watch on later calls."""
        if "/src/repro/" in code.co_filename:
            defaults = _defaults(code)
            site = f"{code.co_filename}\t{code.co_qualname}\t{code.co_firstlineno}"
            _log.write(f"C\t{site}\n")
            sites = dict.fromkeys(defaults, site)
        elif (code.co_filename == "<string>" and code.co_name == "__init__"
              and frame.f_globals.get("__name__", "").startswith("repro.")
              and dataclasses.is_dataclass(frame.f_locals.get("self"))):
            sites = {}  # field -> the dataclass in the MRO that declares it
            for cls in reversed(type(frame.f_locals["self"]).__mro__):
                if dataclasses.is_dataclass(cls) and cls.__module__.startswith("repro."):
                    site = f"{sys.modules[cls.__module__].__file__}\t{cls.__qualname__}\t0"
                    _log.write(f"C\t{site}\n")
                    sites.update(dict.fromkeys(cls.__dict__.get("__annotations__", ()), site))
            defaults = {name: value for name, value in _defaults(code).items()
                        if name in sites}
        else:
            return None
        if not defaults:
            return None
        entry = None
        if code.co_flags & _RESUMABLE:
            entry = next(i.offset for i in dis.get_instructions(code)
                         if i.opname == "RESUME")
        return code, entry, defaults, sites

    def _profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        key = id(code)  # equal code objects (two one-field dataclasses) stay apart
        if key not in _pending:
            _pending[key] = _first_sight(frame, code) or code
        watch = _pending[key]
        if watch is code:
            return
        _, entry, defaults, sites = watch
        if entry is not None and frame.f_lasti != entry:
            return  # a resume, not a call
        bound = frame.f_locals
        for name in [n for n in defaults if not _same(bound.get(n, defaults[n]), defaults[n])]:
            del defaults[name]
            _log.write(f"V\t{sites[name]}\t{name}\n")
        if not defaults:
            _pending[key] = code

    threading.setprofile(_profile)
    sys.setprofile(_profile)
