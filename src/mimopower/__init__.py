"""Joint downlink power minimization and BS-user association for multi-cell
massive MIMO with non-coherent joint transmission and MRT precoding."""

from .channel import (
    ChannelStats,
    NetworkScenario,
    channel_stats,
    estimation_quality,
    large_scale_fading,
    load_scenario,
    save_scenario,
)
from .harness import SweepSpec, default_scenario, emit_results, run_drop, run_sweep
from .lp import LinearProgram, LpSolution, LpStatus
from .lp import solve as lp_solve
from .lp import verify as lp_verify
from .maxmin import MaxMinResult, auto_upper_bound, solve_max_min
from .mc_oracle import McConfig, estimate_sinr_terms
from .power_assoc import (
    DropLp,
    PowerMinResult,
    association_rule_check,
    build_lp,
    max_snr_mask,
    solve_power_min,
)
from .se import (
    PowerAllocation,
    QosTargets,
    se_mrt_all,
    sinr_mrt_all,
)

__version__ = "0.1.0"
