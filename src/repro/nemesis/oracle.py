"""Extra (named) oracles layered over the built-in invariant suite.

Every run already checks its chaos scenario's full safety suite
(docs/FAULTS.md).  This module holds *additional* oracles a search
can layer on, looked up by name so a repro artifact can record which
ones were active and a replay can re-apply exactly the same judgement.

The registry ships one planted-bug oracle: ``planted-no-crash``
asserts that no server process ever crashed.  On a schedule pool whose
vocabulary includes crash rules this is a deterministic planted bug —
the search *must* find it, and the shrinker must strip every other
rule away until the crash atom alone remains.  That end-to-end path
(find -> shrink -> artifact -> byte-identical replay) is what the
nemesis smoke gate pins.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.nemesis.dataplanes import NemesisResult, Oracle


def planted_no_crash(result: NemesisResult) -> List[str]:
    """Fails iff a server process crashed — the planted-bug arm."""
    crashes = result.report.server_crashes
    if crashes:
        return ["planted oracle: %d server crash(es) observed" % crashes]
    return []


#: name -> oracle; names are what artifacts record
ORACLES: Dict[str, Oracle] = {
    "planted-no-crash": planted_no_crash,
}


def resolve(names: Sequence[str]) -> Tuple[Oracle, ...]:
    """Map oracle names to callables, failing loudly on a typo."""
    oracles = []
    for name in names:
        if name not in ORACLES:
            raise ValueError(
                "unknown oracle %r (have: %s)" % (name, ", ".join(sorted(ORACLES)))
            )
        oracles.append(ORACLES[name])
    return tuple(oracles)
