"""The traced variant of one ``python -m repro.cli ...`` op.

Runs the same ``repro.cli.main`` call in a fresh interpreter and reports,
on a last stdout line, the wall-clock instants at which the interpreter
was up, ``repro.cli`` was imported, the LP solver was imported (one tiny
solve forces it, as the first LP of the compile would) and ``main()``
returned.  ``CliOneshot.run_op_traced`` turns them into spans.
"""

import json
import sys
import time

marks = [time.time()]

import repro.cli  # noqa: E402

marks.append(time.time())

from repro.solvers import get_backend  # noqa: E402
from repro.solvers.base import LPProblemBuilder  # noqa: E402

builder = LPProblemBuilder(1)
builder.set_objective([0], [1.0])
builder.add_eq_rows([1.0], rows=[0], cols=[0], values=[1.0])
get_backend().solve(builder.build())
marks.append(time.time())

code = repro.cli.main(sys.argv[1:])
marks.append(time.time())
sys.stdout.flush()
print("E2E-PROBE " + json.dumps(marks))
sys.exit(code)
