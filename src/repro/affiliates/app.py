"""The affiliate app runtime: SDK fetches, UI, points, completions."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.affiliates.ui import OfferCardView, OfferListView, TabView, View
from repro.iip.offerwall import AffiliateWallConfig, OfferWallServer
from repro.iip.platform import IncentivizedInstallPlatform
from repro.net.client import HttpClient
from repro.net.errors import NetError
from repro.users.worker import OfferWorkResult, Worker


@dataclass(frozen=True)
class AffiliateAppSpec:
    """Static facts about one affiliate app."""

    package: str
    title: str
    installs_display: str           # e.g. "10M+" as shown on Play
    integrated_iips: Tuple[str, ...]
    currency_name: str
    points_per_usd: float
    user_share: float = 1.0

    def wall_config(self) -> AffiliateWallConfig:
        return AffiliateWallConfig(
            affiliate_id=self.package,
            currency_name=self.currency_name,
            points_per_usd=self.points_per_usd,
            user_share=self.user_share,
        )


@dataclass(frozen=True)
class WallOffer:
    """One offer as the affiliate app's SDK parsed it off the wire."""

    iip_name: str
    offer_id: str
    package: str
    title: str
    play_store_url: str
    description: str
    points: int
    currency: str


class AffiliateAppRuntime:
    """One install of an affiliate app on one device.

    The runtime issues genuine HTTPS requests to each integrated IIP's
    offer wall via the device's HTTP client (which may be configured to
    go through a proxy -- that is how the milker intercepts this
    traffic) and renders the results into the view tree that the UI
    fuzzer drives.
    """

    def __init__(
        self,
        spec: AffiliateAppSpec,
        client: HttpClient,
        walls: Mapping[str, OfferWallServer],
        platforms: Optional[Mapping[str, IncentivizedInstallPlatform]] = None,
    ) -> None:
        self.spec = spec
        self._client = client
        self._walls = {name: wall for name, wall in walls.items()
                       if name in spec.integrated_iips}
        missing = set(spec.integrated_iips) - set(self._walls)
        if missing:
            raise ValueError(f"walls missing for integrated IIPs: {sorted(missing)}")
        self._platforms = dict(platforms or {})
        self._root: Optional[View] = None
        self._pages_loaded: Dict[str, int] = {}
        self._has_more: Dict[str, bool] = {}
        self._offers: Dict[str, List[WallOffer]] = {}
        self._active_tab: Optional[str] = None

    # -- UI lifecycle -----------------------------------------------------------

    def open(self) -> View:
        """Launch the app; builds the tab bar (walls not yet loaded)."""
        root = View(view_id="root", view_class="FrameLayout")
        tab_bar = root.add(View(view_id="tab_bar", view_class="TabBar"))
        for iip_name in self.spec.integrated_iips:
            tab_bar.add(TabView(view_id=f"tab_{iip_name}",
                                label=f"{iip_name} Offers",
                                iip_name=iip_name))
        root.add(OfferListView(view_id="offer_list"))
        self._root = root
        self._active_tab = None
        return root

    @property
    def root(self) -> View:
        if self._root is None:
            raise RuntimeError("app not opened")
        return self._root

    def tap(self, view: View) -> None:
        """Generic tap, as a UI automation driver would issue it."""
        if isinstance(view, TabView):
            self.select_tab(view.iip_name)
        # Taps on other views (offer cards etc.) are inert for milking.

    def select_tab(self, iip_name: str) -> None:
        """Tap a tab: loads the first page of that wall."""
        if iip_name not in self._walls:
            raise KeyError(f"{self.spec.package} does not integrate {iip_name}")
        self._active_tab = iip_name
        if iip_name not in self._pages_loaded:
            self._offers[iip_name] = []
            self._pages_loaded[iip_name] = 0
            self._has_more[iip_name] = True
            self._fetch_next_page(iip_name)
        self._render_active_tab()

    def scroll(self) -> bool:
        """Scroll the offer list; loads the next page if there is one.

        Returns True if new content appeared (the fuzzer scrolls until
        this returns False).
        """
        if self._active_tab is None:
            return False
        if not self._has_more[self._active_tab]:
            self._offer_list().fully_loaded = True
            return False
        shown = len(self._offers[self._active_tab])
        self._fetch_next_page(self._active_tab)
        self._render_active_tab(start=shown)
        return True

    def visible_offers(self) -> List[WallOffer]:
        if self._active_tab is None:
            return []
        return list(self._offers[self._active_tab])

    def all_loaded_offers(self) -> List[WallOffer]:
        return [offer for offers in self._offers.values() for offer in offers]

    # -- networking ------------------------------------------------------------

    def _fetch_next_page(self, iip_name: str) -> None:
        wall = self._walls[iip_name]
        page = self._pages_loaded[iip_name]
        response = self._client.get(
            wall.hostname, "/api/v1/offers",
            params={"affiliate_id": self.spec.package, "page": str(page)})
        if not response.ok:
            raise NetError(
                f"wall {wall.hostname} returned {response.status}")
        payload = response.json()
        for entry in payload["offers"]:
            self._offers[iip_name].append(WallOffer(
                iip_name=iip_name,
                offer_id=entry["offer_id"],
                package=entry["app"]["package"],
                title=entry["app"]["title"],
                play_store_url=entry["app"]["play_store_url"],
                description=entry["description"],
                points=entry["payout"]["points"],
                currency=entry["payout"]["currency"],
            ))
        self._pages_loaded[iip_name] = page + 1
        self._has_more[iip_name] = bool(payload["has_more"])

    def _offer_list(self) -> OfferListView:
        found = self.root.find_by_id("offer_list")
        assert isinstance(found, OfferListView)
        return found

    def _render_active_tab(self, start: int = 0) -> None:
        """Render the active tab's cards from index ``start`` on.

        ``start == 0`` redraws the list; a scroll passes the number of
        cards already shown and appends only the new page's cards.
        """
        offer_list = self._offer_list()
        if start == 0:
            offer_list.children.clear()
        assert self._active_tab is not None
        for index, offer in enumerate(self._offers[self._active_tab][start:],
                                      start):
            offer_list.add(OfferCardView(
                view_id=f"offer_{self._active_tab}_{index}",
                offer_id=offer.offer_id,
                title=offer.title,
                description=offer.description,
                points=offer.points,
                currency=offer.currency,
            ))
        offer_list.fully_loaded = not self._has_more[self._active_tab]

    # -- worker flow ------------------------------------------------------------

    def complete_offer(self, wall_offer: WallOffer, worker: Worker,
                       result: OfferWorkResult, day: int) -> bool:
        """Report a worker's completion to the IIP; credit points if paid."""
        platform = self._platforms.get(wall_offer.iip_name)
        if platform is None:
            raise KeyError(f"no backend wired for {wall_offer.iip_name}")
        disbursement = platform.complete_offer(
            wall_offer.offer_id, worker.device.device_id, day,
            affiliate_id=self.spec.package, user_id=worker.worker_id,
            tasks_completed=result.tasks_completed)
        if disbursement is None:
            return False
        worker.credit_points(wall_offer.points)
        return True
