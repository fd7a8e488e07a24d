"""Figs. 11/12 and Tables 2/3: the Pando field test, scaled down.

Thin wrapper over :class:`repro.simulator.fieldtest.FieldTest` exposing the
exact rows/series the paper reports:

* Fig. 11 -- the two parallel swarms' size timelines;
* Table 2 -- overall traffic split and Native:P4P ratios;
* Table 3 -- internal same-metro vs cross-metro traffic and % localization;
* Fig. 12a -- unit BDP (plus the mean PID-pair hop count for context);
* Fig. 12b/12c -- completion-time CDFs for all clients and FTTP clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.metrics.completion import excess_percent, improvement_percent
from repro.metrics.localization import localization_ratio
from repro.simulator.fieldtest import (
    FieldTest,
    FieldTestConfig,
    FieldTestReport,
)


@dataclass
class FieldTestFigures:
    """All field-test deliverables derived from one report."""

    report: FieldTestReport

    # -- Fig. 11 ------------------------------------------------------------

    def swarm_timelines(self) -> Dict[str, List[Tuple[float, int]]]:
        return {
            "native": self.report.native.swarm_size_timeline,
            "p4p": self.report.p4p.swarm_size_timeline,
        }

    # -- Table 2 -------------------------------------------------------------

    def table2(self) -> Dict[str, Dict[str, float]]:
        return {
            "native": self.report.native.ledger.as_table(),
            "p4p": self.report.p4p.ledger.as_table(),
            "ratio": localization_ratio(
                self.report.native.ledger, self.report.p4p.ledger
            ),
        }

    # -- Table 3 -------------------------------------------------------------

    def table3(self) -> Dict[str, Dict[str, float]]:
        rows = {}
        for label, outcome in (
            ("native", self.report.native),
            ("p4p", self.report.p4p),
        ):
            ledger = outcome.ledger
            rows[label] = {
                "total": ledger.intra_total,
                "cross_metro": ledger.intra_cross_metro,
                "same_metro": ledger.intra_same_metro,
                "localization_percent": ledger.localization_percent(),
            }
        return rows

    # -- Fig. 12 -------------------------------------------------------------

    def unit_bdp(self) -> Dict[str, float]:
        return {
            "native": self.report.native.unit_bdp,
            "p4p": self.report.p4p.unit_bdp,
        }

    def mean_completion(self, scheme: str, cls: Optional[str] = None) -> float:
        outcome = self.report.native if scheme == "native" else self.report.p4p
        if cls is None:
            return outcome.result.mean_completion()
        times = outcome.completion_by_class.get(cls, {})
        if not times:
            return 0.0
        return sum(times.values()) / len(times)

    def overall_improvement_percent(self) -> float:
        """Paper: P4P improves average completion time by ~23%."""
        return improvement_percent(
            self.mean_completion("native"), self.mean_completion("p4p")
        )

    def fttp_excess_percent(self) -> float:
        """Paper: native FTTP completion is ~68% higher than P4P."""
        return excess_percent(
            self.mean_completion("native", "fttp"),
            self.mean_completion("p4p", "fttp"),
        )


def run_field_test(
    config: Optional[FieldTestConfig] = None,
) -> FieldTestFigures:
    """Run the scaled field test and wrap the report."""
    field_test = FieldTest(config or FieldTestConfig())
    return FieldTestFigures(report=field_test.run())
