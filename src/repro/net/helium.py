"""The semi-federated third-party LoRa network (the Helium model, §4.2–4.4).

Three pieces:

* :class:`DataCreditWallet` — prepaid, fixed-price data credits; the
  paper's arithmetic is one (≤24-byte) packet per hour for 50 years =
  438,000 credits, provisionable today for ~$5 at $1e-5/credit.
* :class:`HotspotPopulation` — a churning population of third-party
  gateways: owners join (network growth) and leave (mining stops paying,
  hardware bricks, owner moves).  The *network* can outlive any hotspot.
* :class:`HeliumNetwork` — glues population + wallet + AS-correlated
  backhaul into deployable gateway entities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..analysis.asn import synthesize_assignments
from ..core import units
from ..core.engine import Simulation
from ..radio.lora import LoRaParameters, suburban_path_loss
from .backhaul import OpaqueBackhaul
from .cloud import CloudEndpoint
from .gateway import ThirdPartyGateway
from .geometry import Position, uniform_positions

#: Helium pricing: one data credit per 24-byte message, $0.00001 each.
USD_PER_CREDIT: float = 1e-5

#: The §4.4 arithmetic: hourly packets for 50 years.
PACKETS_50_YEARS_HOURLY: int = int(round(units.years(50.0) / units.HOUR))


def credits_for_schedule(
    interval_s: float, horizon_s: float, credits_per_packet: int = 1
) -> int:
    """Data credits to send one packet every ``interval_s`` for ``horizon_s``.

    Note: with Julian years this gives 438,300 for 50 years hourly; the
    paper's 438,000 uses 365-day years — see
    :func:`repro.econ.credits.paper_prepay_quote` for the paper-exact
    arithmetic.

    >>> credits_for_schedule(units.HOUR, units.years(50.0))
    438300
    """
    if interval_s <= 0.0:
        raise ValueError("interval_s must be positive")
    if horizon_s <= 0.0:
        raise ValueError("horizon_s must be positive")
    if credits_per_packet < 1:
        raise ValueError("credits_per_packet must be >= 1")
    return int(horizon_s // interval_s) * credits_per_packet


@dataclass
class DataCreditWallet:
    """A prepaid wallet of non-expiring, fixed-price data credits.

    "One interesting property is that the price of data once purchased
    is fixed" (§4.4) — so a wallet provisioned today funds unattended
    operation regardless of future token prices.
    """

    balance: int = 0
    provisioned_usd: float = 0.0
    spent: int = 0
    refusals: int = 0
    drained: int = 0

    def provision(self, credits: int) -> float:
        """Buy ``credits``; returns the USD cost at the fixed price."""
        if credits <= 0:
            raise ValueError(f"credits must be positive, got {credits}")
        self.balance += credits
        cost = credits * USD_PER_CREDIT
        self.provisioned_usd += cost
        return cost

    def debit(self, credits: int) -> bool:
        """Pay for one transmission; False (and counted) if broke."""
        if credits <= 0:
            raise ValueError(f"credits must be positive, got {credits}")
        if credits > self.balance:
            self.refusals += 1
            return False
        self.balance -= credits
        self.spent += credits
        return True

    def drain(self, credits: Optional[int] = None, fraction: Optional[float] = None) -> int:
        """Remove credits without buying service (injected fault).

        Models a lost key, a billing reversal, or an account compromise:
        the balance drops but nothing was ``spent`` on packets.  Exactly
        one of ``credits``/``fraction`` must be given.  Returns the
        credits actually removed (clamped to the balance).
        """
        if (credits is None) == (fraction is None):
            raise ValueError("give exactly one of credits= or fraction=")
        if fraction is not None:
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"fraction must be in [0, 1], got {fraction}")
            credits = int(self.balance * fraction)
        if credits < 0:
            raise ValueError(f"credits must be non-negative, got {credits}")
        removed = min(credits, self.balance)
        self.balance -= removed
        self.drained += removed
        return removed

    def years_remaining(self, interval_s: float, credits_per_packet: int = 1) -> float:
        """Runway at the given reporting schedule."""
        per_year = (units.YEAR / interval_s) * credits_per_packet
        if per_year <= 0.0:
            return float("inf")
        return self.balance / per_year


@dataclass(frozen=True)
class ChurnModel:
    """Hotspot arrival/departure dynamics.

    ``median_tenure_years`` — how long an owner keeps a hotspot up
    (crypto-incentive networks historically churn fast).
    ``halflife_years`` — network-level popularity decay: arrival rate
    halves every halflife (set ``None`` for a steady network).
    """

    median_tenure_years: float = 3.0
    tenure_sigma: float = 0.9
    halflife_years: Optional[float] = None

    def sample_tenure(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw hotspot tenures (seconds)."""
        mu = np.log(units.years(self.median_tenure_years))
        return rng.lognormal(mu, self.tenure_sigma, size=n)

    def arrival_rate_at(self, t: float, base_per_year: float) -> float:
        """Hotspot arrivals per year at time ``t``."""
        if self.halflife_years is None:
            return base_per_year
        halvings = units.as_years(t) / self.halflife_years
        return base_per_year * 0.5**halvings


class HeliumNetwork:
    """A churning population of third-party LoRa hotspots plus a wallet.

    The network deploys ``initial_hotspots`` at start and replenishes at
    ``arrivals_per_year`` (scaled by the churn model's popularity decay).
    Each hotspot rides an AS-correlated opaque backhaul to ``endpoint``.
    ``as_outage`` support lets benchmarks fail an entire AS at once.
    """

    def __init__(
        self,
        sim: Simulation,
        endpoint: CloudEndpoint,
        extent_m: float = 10_000.0,
        initial_hotspots: int = 60,
        arrivals_per_year: float = 12.0,
        churn: ChurnModel = ChurnModel(),
        lora: LoRaParameters = LoRaParameters(spreading_factor=10),
        wallet: Optional[DataCreditWallet] = None,
    ) -> None:
        if initial_hotspots < 0:
            raise ValueError("initial_hotspots must be non-negative")
        self.sim = sim
        self.endpoint = endpoint
        self.extent_m = extent_m
        self.arrivals_per_year = arrivals_per_year
        self.churn = churn
        self.lora = lora
        self.wallet = wallet or DataCreditWallet()
        # The wallet dataclass stays plain (it is used standalone in the
        # econ layer); the network exports its fields as lazy gauges so
        # snapshots capture the end-of-run wallet state.  ``balance``
        # merges by min — the tightest remaining runway across runs.
        wallet_ref = self.wallet
        metrics = sim.metrics
        metrics.gauge_fn(
            "helium_wallet_balance_credits", lambda: wallet_ref.balance, agg="min"
        )
        metrics.gauge_fn(
            "helium_wallet_spent_credits", lambda: wallet_ref.spent, agg="sum"
        )
        metrics.gauge_fn(
            "helium_wallet_refusals", lambda: wallet_ref.refusals, agg="sum"
        )
        metrics.gauge_fn(
            "helium_wallet_drained_credits", lambda: wallet_ref.drained, agg="sum"
        )
        self._c_hotspots_spawned = metrics.counter("helium_hotspots_spawned_total")
        self.hotspots: List[ThirdPartyGateway] = []
        self.backhauls: Dict[int, OpaqueBackhaul] = {}
        self._asn_pool: List[int] = []
        self._live_cache: List[ThirdPartyGateway] = []
        self._live_cache_version: int = -1
        self._live_scanned: int = 0  # roster entries the cache has seen
        self._live_index = None
        self._spawn_initial(initial_hotspots)
        self._schedule_arrival()

    # ------------------------------------------------------------------
    # Population dynamics
    # ------------------------------------------------------------------
    def _asn_for_new_hotspot(self) -> int:
        if not self._asn_pool:
            rng = self.sim.rng("helium-asn")
            self._asn_pool = synthesize_assignments(n_nodes=512, rng=rng)
        return self._asn_pool.pop()

    def _backhaul_for(self, asn: int) -> OpaqueBackhaul:
        backhaul = self.backhauls.get(asn)
        if backhaul is None or not backhaul.alive:
            backhaul = OpaqueBackhaul(self.sim, name=f"as{asn}", asn=asn)
            backhaul.add_dependency(self.endpoint)
            backhaul.deploy()
            self.backhauls[asn] = backhaul
        return backhaul

    def _spawn_initial(self, count: int) -> None:
        if count == 0:
            return
        rng = self.sim.rng("helium-placement")
        positions = uniform_positions(count, self.extent_m, rng)
        for position in positions:
            self._spawn_hotspot(position)

    def _spawn_hotspot(self, position: Optional[Position] = None) -> ThirdPartyGateway:
        rng = self.sim.rng("helium-placement")
        if position is None:
            position = uniform_positions(1, self.extent_m, rng)[0]
        tenure = float(self.churn.sample_tenure(self.sim.rng("helium-churn"))[0])
        asn = self._asn_for_new_hotspot()
        hotspot = ThirdPartyGateway(
            self.sim,
            spec=self.lora.spec(),
            path_loss=suburban_path_loss(),
            position=position,
            departs_at=self.sim.now + tenure,
            asn=asn,
        )
        hotspot.add_dependency(self._backhaul_for(asn))
        hotspot.wallet = self.wallet
        hotspot.deploy()
        self.hotspots.append(hotspot)
        self._c_hotspots_spawned.value += 1
        return hotspot

    def _schedule_arrival(self) -> None:
        rate = self.churn.arrival_rate_at(self.sim.now, self.arrivals_per_year)
        if rate <= 1e-6:
            return  # network has died out; no more arrivals
        rng = self.sim.rng("helium-churn")
        gap = float(rng.exponential(units.YEAR / rate))
        self.sim.call_in(gap, self._arrive, label="helium-arrival")

    def _arrive(self) -> None:
        self._spawn_hotspot()
        self._schedule_arrival()

    # ------------------------------------------------------------------
    # Service interface
    # ------------------------------------------------------------------
    def live_hotspots(self) -> List[ThirdPartyGateway]:
        """Hotspots currently up, in roster order.

        Cached against the simulation's topology version: hotspot
        aliveness only changes through deploy/retire/fail transitions,
        each of which bumps the version, so between bumps the filtered
        list is provably current.  A bump filters the previous list and
        appends the live hotspots spawned since, without rescanning the
        roster: the roster is append-only, every hotspot is deployed
        before it joins it, and a dead hotspot never revives.  Callers
        treat the returned list as read-only.
        """
        version = self.sim.topology_version
        if self._live_cache_version != version:
            roster = self.hotspots
            live = [h for h in self._live_cache if h.alive]
            live.extend(h for h in roster[self._live_scanned:] if h.alive)
            self._live_scanned = len(roster)
            self._live_cache = live
            self._live_cache_version = version
        return self._live_cache

    def live_index(self):
        """A shared spatial index over the live hotspots.

        Devices attach this as their ``gateway_index``.  It indexes
        :meth:`live_hotspots`, a filtered view of the append-only
        roster, so it meets the index's provider contract and
        nearest-hearing queries break distance ties in roster order.
        The cell size tracks the LoRa coverage radius at the planner's
        default threshold.
        """
        if self._live_index is None:
            from ..radio.link import coverage_radius_m
            from .topology import GatewayIndex

            cell = max(
                coverage_radius_m(self.lora.spec(), suburban_path_loss(), 0.5),
                50.0,
            )
            self._live_index = GatewayIndex(
                self.sim, self.live_hotspots, cell_size_m=cell
            )
        return self._live_index

    def fail_as(self, asn: int) -> int:
        """Kill the backhaul of one AS (correlated-failure injection).

        Returns the number of hotspots stranded.
        """
        backhaul = self.backhauls.get(asn)
        if backhaul is None:
            return 0
        backhaul.fail(reason=f"as{asn}-outage")
        return sum(1 for h in self.live_hotspots() if h.asn == asn)
