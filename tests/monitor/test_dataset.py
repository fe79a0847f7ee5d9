"""OfferDataset distinct-value queries: per-epoch memo and chunking."""

import pytest

from repro.monitor.dataset import OfferDataset
from tests.analysis.test_tables import SPEC, build_dataset, obs

OBSERVATIONS = [
    obs(iip, f"{iip[0]}{index}", f"com.app.p{index % 9}",
        f"Install and reach level {index % 4}", 0.25, day=index % 5)
    for index in range(20) for iip in ("Fyber", "RankApp", "AdGem")
    if index % 3 or iip != "AdGem"
]


def dataset_with(batch_rows, observations=OBSERVATIONS):
    dataset = OfferDataset({"com.aff.app": SPEC}, batch_rows=batch_rows)
    dataset.ingest_all(observations)
    return dataset


def queries(dataset):
    return {
        "packages": dataset.unique_packages(),
        "descriptions": dataset.unique_descriptions(),
        "iips": dataset.iips_observed(),
        "per_iip": {iip: dataset.packages_for_iip(iip)
                    for iip in ("Fyber", "RankApp", "AdGem", "Tapjoy")},
    }


def test_queries_agree_for_materialised_and_chunked_corpus():
    chunked = dataset_with(7)
    assert len(list(chunked.frame_chunks())) > 2
    expected = queries(dataset_with(0))
    assert queries(chunked) == expected
    assert expected["iips"] == ["AdGem", "Fyber", "RankApp"]
    assert expected["per_iip"]["Tapjoy"] == []


@pytest.mark.parametrize("batch_rows", [0, 7])
class TestMemoFollowsMutations:
    def test_ingest_is_seen_by_the_next_query(self, batch_rows):
        dataset = dataset_with(batch_rows)
        before = queries(dataset)
        dataset.ingest(obs("Tapjoy", "t1", "com.app.new", "Install", 0.5))
        after = queries(dataset)
        assert after["packages"] == sorted(before["packages"]
                                           + ["com.app.new"])
        assert after["iips"] == ["AdGem", "Fyber", "RankApp", "Tapjoy"]
        assert after["per_iip"]["Tapjoy"] == ["com.app.new"]
        assert after["per_iip"]["Fyber"] == before["per_iip"]["Fyber"]
        assert after["descriptions"] == sorted(before["descriptions"]
                                               + ["Install"])

    def test_load_state_is_seen_by_the_next_query(self, batch_rows):
        dataset = dataset_with(batch_rows)
        queries(dataset)
        dataset.load_state(build_dataset().state_dict())
        assert queries(dataset) == queries(build_dataset())
        assert dataset.iips_observed() == ["Fyber", "RankApp"]
        assert dataset.packages_for_iip("RankApp") == ["com.app.five",
                                                       "com.app.four"]

    def test_returned_lists_are_copies(self, batch_rows):
        dataset = dataset_with(batch_rows)
        expected = queries(dataset)
        dataset.unique_packages().append("junk")
        dataset.unique_descriptions().clear()
        dataset.iips_observed().pop()
        dataset.packages_for_iip("Fyber").reverse()
        assert queries(dataset) == expected
