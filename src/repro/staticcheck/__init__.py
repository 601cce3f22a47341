"""Engine-aware static analysis for the repro codebase.

The engine's correctness rests on contracts that ordinary tests cannot see
breaking: streams must speak the scan scheduler's protocol, frame filters
hoisted into the batch gate must be pure, plans/streams/contexts must stay
picklable for the shard-parallel roadmap, thread workers must not share
mutable module state, and behaviour-changing knobs must default off.  This
package encodes those contracts as AST-based lint rules with a registry,
structured findings, a baseline-suppression file for accepted debt, and a
CLI (``python -m repro.staticcheck``).

Rule families
-------------
* ``stream-protocol`` (SC1xx) — every :class:`QueryStream` subclass
  implements the scheduler protocol with compatible signatures, and no
  call-site bypasses it by reaching into stream internals.
* ``gate-purity`` (SC2xx) — hoistable frame filters are stateless and
  deterministic on their evaluation path (interprocedural over local
  helpers), and raw RNG construction stays behind :mod:`repro.common.rng`.
* ``picklability`` (SC3xx) — fields of plans/streams/contexts/configs whose
  types cannot cross a process boundary (multi-camera feeds ship their
  contexts from worker processes).
* ``thread-safety`` (SC4xx) — module-level mutable state mutated without a
  lock, and lambdas submitted to executor pools.
* ``knob-hygiene`` (SC5xx) — every ``enable_*`` knob defaults to ``False``,
  is exercised by a test, and is documented.

See ``docs/staticcheck.md`` for the rule catalog and baselining workflow.
"""

from __future__ import annotations

from repro.staticcheck.baseline import Baseline, BaselineEntry
from repro.staticcheck.core import (
    AnalysisTarget,
    CheckConfig,
    Finding,
    Rule,
    all_rules,
    get_rule,
    register_rule,
    run_checks,
)

# Importing the rules package registers every built-in rule.
import repro.staticcheck.rules  # noqa: F401  (registration side effect)

__all__ = [
    "AnalysisTarget",
    "Baseline",
    "BaselineEntry",
    "CheckConfig",
    "Finding",
    "Rule",
    "all_rules",
    "get_rule",
    "register_rule",
    "run_checks",
]
