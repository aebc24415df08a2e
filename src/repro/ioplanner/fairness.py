"""Per-tenant bandwidth quotas via deficit round robin.

The planner's admission queue is shared: one tenant replaying a hot
benchmark at 10x its quota must not starve a compliant tenant's
interactive queries. Classic deficit round robin (Shreedhar &
Varghese) fits the windowed planner directly: each planning window
credits every tenant's deficit counter with a byte quantum
proportional to its quota, and the admission pass serves tenants in
rotating order while their counter is positive.

Charging is *post-paid*: the demand bytes of a query are only known
after it executes (the fetch log), so admission checks ``deficit > 0``
and the actual bytes are debited afterwards — a query may overdraw its
window, and the tenant then sits out windows until the quanta repay
the debt. Credit is capped at a few windows' worth so an idle tenant
cannot bank an unbounded burst.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's share of the planner's per-window byte budget."""

    name: str
    #: Demand bytes this tenant may fetch per planning window.
    quota_bytes_per_window: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if self.quota_bytes_per_window <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r}: quota must be positive"
            )


#: Credit a tenant may bank, in windows' worth of its quantum.
CREDIT_CAP_WINDOWS = 4.0


class DeficitRoundRobin:
    """Deficit-round-robin admission over a fixed tenant set."""

    def __init__(self, tenants: Sequence[TenantSpec]) -> None:
        if not tenants:
            raise ConfigurationError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError("tenant names must be unique")
        self._specs: Dict[str, TenantSpec] = {t.name: t for t in tenants}
        self._order = list(names)
        self._deficit: Dict[str, float] = {name: 0.0 for name in names}
        self._rotation = 0

    @property
    def tenants(self) -> List[str]:
        return list(self._order)

    def spec(self, tenant: str) -> TenantSpec:
        try:
            return self._specs[tenant]
        except KeyError:
            known = ", ".join(self._order)
            raise ConfigurationError(
                f"unknown tenant {tenant!r} (known: {known})"
            ) from None

    def deficit(self, tenant: str) -> float:
        self.spec(tenant)
        return self._deficit[tenant]

    def begin_window(self) -> None:
        """Credit every tenant's quantum; rotate the service order."""
        for name, spec in self._specs.items():
            quantum = spec.quota_bytes_per_window
            self._deficit[name] = min(
                self._deficit[name] + quantum,
                CREDIT_CAP_WINDOWS * quantum,
            )
        self._rotation = (self._rotation + 1) % len(self._order)

    def service_order(self) -> List[str]:
        """Tenants in this window's rotated round-robin order."""
        offset = self._rotation
        return self._order[offset:] + self._order[:offset]

    def can_admit(self, tenant: str) -> bool:
        """True while the tenant's deficit counter is positive."""
        self.spec(tenant)
        return self._deficit[tenant] > 0.0

    def charge(self, tenant: str, nbytes: int) -> None:
        """Debit a served query's actual demand bytes (post-paid)."""
        if nbytes < 0:
            raise ConfigurationError("cannot charge negative bytes")
        self.spec(tenant)
        self._deficit[tenant] -= nbytes
