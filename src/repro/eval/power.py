"""Figure 11: power consumption of committee service on a mobile device.

The paper runs the most expensive MPC of each query with one party on a
Raspberry Pi 4 and measures the power draw with a USB meter, subtracting
the idle baseline. We reproduce the model: take each query's most
expensive committee (per the plan's cost breakdown), scale its compute
time to the Pi's speed, and convert active power x time into mAh at the
battery voltage — then compare against 5% of a 2022 iPhone SE battery
(1,624 mAh), the paper's reference line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..planner.costmodel import CostModel, PARTICIPANT_DEVICE, REFERENCE_SERVER
from ..queries.catalog import ALL_QUERIES
from .experiments import plan_paper_query

#: 2022 iPhone SE battery (§7.4).
IPHONE_SE_BATTERY_MAH = 1624.0
BATTERY_BUDGET_FRACTION = 0.05

#: Basic (non-committee) cost measured in the paper: ZK proof + encryption.
PAPER_BASE_COST_MAH = 6.0

#: Power draw *above idle* during active crypto computation (the paper
#: subtracts the idle baseline; a Pi 4 draws ~1.3 W extra under load).
DELTA_WATTS = 1.3

#: Fraction of a committee member's wall-clock spent actively computing;
#: the rest is network wait at (subtracted) idle power. Large MPCs are
#: round-bound, so the duty cycle is low.
COMPUTE_DUTY_CYCLE = 0.09


def active_mah(seconds: float, volts: float) -> float:
    """Milliamp-hours drawn by ``seconds`` of computation at ``DELTA_WATTS``
    above idle, converted at the battery voltage ``volts``."""
    return DELTA_WATTS / volts * (seconds / 3600.0) * 1000.0


@dataclass
class PowerRow:
    query: str
    committee_type: str
    device_seconds: float
    mah: float
    base_mah: float

    @property
    def within_budget(self) -> bool:
        return self.mah <= BATTERY_BUDGET_FRACTION * IPHONE_SE_BATTERY_MAH


def fig11(model: CostModel = None) -> List[PowerRow]:
    """Per-query worst-case committee power draw on the Pi-class device."""
    model = model or CostModel()
    device = PARTICIPANT_DEVICE
    rows: List[PowerRow] = []
    for spec in ALL_QUERIES:
        result = plan_paper_query(spec)
        score = result.plan.score
        worst = max(score.committee_breakdown, key=lambda e: e.seconds, default=None)
        if worst is None:
            continue
        # Committee costs are scored at reference-server speed; rescale to
        # the device profile (the ~8x slowdown of §7.5), then keep only the
        # active-compute fraction at the above-idle power draw.
        slowdown = REFERENCE_SERVER.speed / device.speed
        device_seconds = worst.seconds * slowdown
        mah = active_mah(device_seconds * COMPUTE_DUTY_CYCLE, device.battery_volts)
        # Input proving/encryption is compute-bound: full duty cycle.
        base_mah = active_mah(
            score.participant_base_seconds * slowdown, device.battery_volts
        )
        rows.append(
            PowerRow(spec.name, worst.committee_type, device_seconds, mah, base_mah)
        )
    return rows


def print_fig11() -> None:
    budget = BATTERY_BUDGET_FRACTION * IPHONE_SE_BATTERY_MAH
    print(f"Fig 11 — power on a Raspberry Pi 4 (budget: {budget:.0f} mAh = 5% battery)")
    for r in fig11():
        flag = "ok" if r.within_budget else "OVER"
        print(
            f"{r.query:10s} {r.committee_type:11s} {r.device_seconds / 60:6.1f} min "
            f"{r.mah:7.1f} mAh  base={r.base_mah:5.1f} mAh  [{flag}]"
        )


if __name__ == "__main__":
    print_fig11()
