"""Performance metrics in the paper's normalized terms (Section 6).

- **normalized load** = tau_c / tau_in (1.0 = fastest feasible input rate),
- **normalized throughput** = tau_in / tau_out, 1.0 when the machine keeps
  up with the input rate,
- **normalized latency** = lambda / Lambda, measured invocation latency
  over the critical-path length,
- **output inconsistency (OI)** = the output-generation-interval series is
  not constant (paper Eq. 1 violated); figures show it as an up-down spike
  whose extremes are the min/max of the series and whose middle is the
  mean.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "OutageReport": "survivability",
    "SpikeStats": "series",
    "has_output_inconsistency": "series",
    "load_sweep": "series",
    "normalized_latency_stats": "series",
    "normalized_throughput_stats": "series",
    "outage_misses": "survivability",
    "output_intervals": "series",
})
