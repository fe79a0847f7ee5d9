"""InstallLog device queries that do not sort the whole log."""

from repro.detection.events import DeviceInstallEvent, InstallLog


def event(device, package="app.x"):
    return DeviceInstallEvent(device_id=device, package=package, day=0,
                              hour=1.0, ip_slash24="10.0.0", ssid_hash="s",
                              opened=False, engagement_seconds=0.0)


class TestDeviceQueries:
    def test_count_and_membership_follow_devices(self):
        log = InstallLog([event("b"), event("a"), event("b", "app.y")])
        assert log.device_count() == len(log.devices()) == 2
        assert log.has_device("a") and not log.has_device("c")
        assert log.has_devices({"a", "b"}) and log.has_devices(set())
        assert not log.has_devices({"a", "c"})

    def test_queries_do_not_create_devices(self):
        log = InstallLog([event("a")])
        log.has_device("ghost")
        log.has_devices({"ghost"})
        log.events_for_device("ghost")
        assert log.device_count() == 1
