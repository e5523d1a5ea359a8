"""Plain-text reporting of experiment series.

``repro-sr utilization`` and ``repro-sr pipeline`` print each of the
paper's figures as a table: one row per load point, one column per
plotted series.  This package owns the formatting.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "format_spike": "tables",
    "format_table": "tables",
})
