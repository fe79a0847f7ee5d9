"""Install-event log: the detector's input.

One event per (device, package) install with the signals a store-side
detector could plausibly have: timestamp, network location (/24 and
hashed SSID as the honey telemetry reports them), and a coarse
engagement measure after install.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple


@dataclass(frozen=True)
class DeviceInstallEvent:
    """One device installing one app."""

    device_id: str
    package: str
    day: int
    hour: float
    ip_slash24: str
    ssid_hash: str
    opened: bool
    engagement_seconds: float

    @property
    def timestamp_hours(self) -> float:
        return self.day * 24.0 + self.hour

    def __post_init__(self) -> None:
        if not 0 <= self.hour < 24:
            raise ValueError(f"hour out of range: {self.hour}")
        if self.engagement_seconds < 0:
            raise ValueError("negative engagement")

    def to_dict(self) -> Dict[str, object]:
        """JSON form for WAL segments and checkpoints."""
        return {
            "device_id": self.device_id,
            "package": self.package,
            "day": self.day,
            "hour": self.hour,
            "ip_slash24": self.ip_slash24,
            "ssid_hash": self.ssid_hash,
            "opened": self.opened,
            "engagement_seconds": self.engagement_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DeviceInstallEvent":
        return cls(
            device_id=str(data["device_id"]),
            package=str(data["package"]),
            day=int(data["day"]),              # type: ignore[arg-type]
            hour=float(data["hour"]),          # type: ignore[arg-type]
            ip_slash24=str(data["ip_slash24"]),
            ssid_hash=str(data["ssid_hash"]),
            opened=bool(data["opened"]),
            engagement_seconds=float(data["engagement_seconds"]),  # type: ignore[arg-type]
        )


class InstallLog:
    """An indexed collection of install events."""

    def __init__(self, events: Optional[Iterable[DeviceInstallEvent]] = None) -> None:
        self._events: List[DeviceInstallEvent] = []
        self._by_package: Dict[str, List[DeviceInstallEvent]] = defaultdict(list)
        self._by_device: Dict[str, List[DeviceInstallEvent]] = defaultdict(list)
        for event in events or ():
            self.add(event)

    def add(self, event: DeviceInstallEvent) -> None:
        self._events.append(event)
        self._by_package[event.package].append(event)
        self._by_device[event.device_id].append(event)

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[DeviceInstallEvent]:
        return list(self._events)

    def packages(self) -> List[str]:
        return sorted(self._by_package)

    def devices(self) -> List[str]:
        return sorted(self._by_device)

    def device_count(self) -> int:
        """Distinct devices logged so far (no sort, unlike ``devices``)."""
        return len(self._by_device)

    def has_device(self, device_id: str) -> bool:
        return device_id in self._by_device

    def has_devices(self, device_ids: Set[str]) -> bool:
        """Whether every id in ``device_ids`` has been logged."""
        return self._by_device.keys() >= device_ids

    def events_for_package(self, package: str) -> List[DeviceInstallEvent]:
        return sorted(self._by_package.get(package, ()),
                      key=lambda event: event.timestamp_hours)

    def events_for_device(self, device_id: str) -> List[DeviceInstallEvent]:
        return sorted(self._by_device.get(device_id, ()),
                      key=lambda event: event.timestamp_hours)

    def packages_of(self, device_id: str) -> Set[str]:
        return {event.package for event in self._by_device.get(device_id, ())}
