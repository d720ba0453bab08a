"""A simulated clock that records every ``advance`` operand, in order.

The charge-sequence pins (``tests/wrappers/test_interpreter.py``,
``tests/mediator/test_executor.py``) compare these recordings with
sequences captured before the row-operator kernel existed: the *order*
of charges is what places ``TimeFirst``, so a later attempt to batch
them must fail a test, not silently move it.
"""

from repro.sources.clock import CostProfile, SimClock
from repro.sources.storage_engine import StorageEngine


class SpyClock(SimClock):
    def __init__(self, profile: CostProfile | None = None) -> None:
        super().__init__(profile)
        self.charges: list[float] = []

    def advance(self, ms: float) -> None:
        self.charges.append(ms)
        super().advance(ms)

    def take(self) -> list[float]:
        """The operands recorded since the last ``take``."""
        charges, self.charges = self.charges, []
        return charges


def build_pin_engine(clock: SimClock | None = None) -> StorageEngine:
    """Five employees on two pages (``id`` indexed) and two departments
    — small enough that whole charge sequences fit in a literal."""
    engine = StorageEngine(
        clock
        if clock is not None
        else SimClock(CostProfile(io_ms=10.0, cpu_ms_per_object=1.0))
    )
    engine.create_collection(
        "emp",
        [{"id": i, "dept": i % 2, "salary": 100 * (i % 3)} for i in range(5)],
        object_size=60,
        indexed_attributes=["id"],
        page_size=256,
    )
    engine.create_collection(
        "dept", [{"dept_id": d, "dname": f"d{d}"} for d in range(2)], object_size=40
    )
    return engine
