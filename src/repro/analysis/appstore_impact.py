"""Tables 5-6, Figure 5, and the enforcement observations (Section 5.2).

All computations run over the crawl archive -- binned install counts
and chart membership as scraped every other day -- exactly the
observables the paper had.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import ChiSquaredResult, safe_two_by_two
from repro.monitor.crawler import CrawlArchive
from repro.monitor.dataset import OfferDataset

DEFAULT_BASELINE_WINDOW_DAYS = 25  # the average campaign duration


@dataclass(frozen=True)
class GroupCount:
    """One row of a Table 5/6/7-style comparison."""

    label: str
    total: int
    positive: int

    @property
    def negative(self) -> int:
        return self.total - self.positive

    @property
    def fraction(self) -> float:
        return self.positive / self.total if self.total else 0.0


@dataclass(frozen=True)
class ImpactComparison:
    """Group rows plus the two chi-squared tests against baseline."""

    baseline: GroupCount
    vetted: GroupCount
    unvetted: GroupCount
    vetted_vs_baseline: ChiSquaredResult
    unvetted_vs_baseline: ChiSquaredResult

    def likelihood_ratio(self, group: GroupCount) -> float:
        if self.baseline.fraction == 0:
            return float("inf") if group.fraction > 0 else 1.0
        return group.fraction / self.baseline.fraction


def _windows_for(packages: Sequence[str], dataset: Optional[OfferDataset],
                 baseline_window: Tuple[int, int]
                 ) -> List[Tuple[str, Tuple[int, int]]]:
    """Each package with its observed campaign window, or the baseline
    window for a package the dataset never observed (or no dataset)."""
    observed = set(dataset.unique_packages()) if dataset is not None else set()
    return [(package, dataset.campaign_window(package)
             if package in observed else baseline_window)
            for package in packages]


def _series_in_window(archive: CrawlArchive, package: str,
                      window: Tuple[int, int]) -> List[Tuple[int, int]]:
    start, end = window
    return [(day, floor) for day, floor in archive.install_series(package)
            if start <= day <= end]


def install_increase_flag(archive: CrawlArchive, package: str,
                          window: Tuple[int, int]) -> Optional[bool]:
    """Did the binned install count grow between the first and last
    crawl inside the window?  None if the app was not crawled twice."""
    series = _series_in_window(archive, package, window)
    if len(series) < 2:
        return None
    return series[-1][1] > series[0][1]


def install_decrease_flag(archive: CrawlArchive, package: str) -> bool:
    """Did the binned install count ever drop (enforcement signature)?"""
    series = archive.install_series(package)
    return any(later < earlier
               for (_, earlier), (_, later) in zip(series, series[1:]))


def _count_group(archive: CrawlArchive, packages: Sequence[str],
                 dataset: Optional[OfferDataset],
                 baseline_window: Tuple[int, int], label: str) -> GroupCount:
    total = 0
    positive = 0
    for package, window in _windows_for(packages, dataset, baseline_window):
        flag = install_increase_flag(archive, package, window)
        if flag is None:
            continue
        total += 1
        if flag:
            positive += 1
    return GroupCount(label=label, total=total, positive=positive)


def install_increase_comparison(
    archive: CrawlArchive,
    dataset: OfferDataset,
    vetted_packages: Sequence[str],
    unvetted_packages: Sequence[str],
    baseline_packages: Sequence[str],
    baseline_window: Tuple[int, int],
) -> ImpactComparison:
    """Table 5."""
    baseline = _count_group(archive, baseline_packages, None,
                            baseline_window, "Baseline")
    vetted = _count_group(archive, vetted_packages, dataset,
                          baseline_window, "Vetted")
    unvetted = _count_group(archive, unvetted_packages, dataset,
                            baseline_window, "Unvetted")
    return ImpactComparison(
        baseline=baseline, vetted=vetted, unvetted=unvetted,
        vetted_vs_baseline=safe_two_by_two(vetted.positive, vetted.negative,
                                      baseline.positive, baseline.negative),
        unvetted_vs_baseline=safe_two_by_two(unvetted.positive, unvetted.negative,
                                        baseline.positive, baseline.negative),
    )


def _charted_in_window(archive: CrawlArchive, package: str,
                       window: Tuple[int, int],
                       exclude_first_day: bool) -> Optional[bool]:
    start, end = window
    crawl_days = [day for day in archive.chart_days_observed()
                  if start <= day <= end]
    if not crawl_days:
        return None
    if exclude_first_day and archive.charted_on(package, crawl_days[0]):
        return None  # excluded: already in charts at window start
    return any(archive.charted_on(package, day)
               for day in crawl_days[1 if exclude_first_day else 0:])


def top_chart_comparison(
    archive: CrawlArchive,
    dataset: OfferDataset,
    vetted_packages: Sequence[str],
    unvetted_packages: Sequence[str],
    baseline_packages: Sequence[str],
    baseline_window: Tuple[int, int],
) -> ImpactComparison:
    """Table 6 (apps already charting at window start are excluded)."""

    def count(packages: Sequence[str], use_dataset: bool,
              label: str) -> GroupCount:
        total = 0
        positive = 0
        for package, window in _windows_for(
                packages, dataset if use_dataset else None, baseline_window):
            flag = _charted_in_window(archive, package, window,
                                      exclude_first_day=True)
            if flag is None:
                continue
            total += 1
            if flag:
                positive += 1
        return GroupCount(label=label, total=total, positive=positive)

    baseline = count(baseline_packages, False, "Baseline")
    vetted = count(vetted_packages, True, "Vetted")
    unvetted = count(unvetted_packages, True, "Unvetted")
    return ImpactComparison(
        baseline=baseline, vetted=vetted, unvetted=unvetted,
        vetted_vs_baseline=safe_two_by_two(vetted.positive, vetted.negative,
                                      baseline.positive, baseline.negative),
        unvetted_vs_baseline=safe_two_by_two(unvetted.positive, unvetted.negative,
                                        baseline.positive, baseline.negative),
    )


@dataclass(frozen=True)
class EnforcementObservation:
    """Section 5.2: install-count decreases per group."""

    label: str
    total: int
    decreased: int

    @property
    def fraction(self) -> float:
        return self.decreased / self.total if self.total else 0.0


def enforcement_decreases(archive: CrawlArchive,
                          groups: Dict[str, Sequence[str]]
                          ) -> List[EnforcementObservation]:
    observations = []
    for label, packages in groups.items():
        crawled = [p for p in packages if len(archive.install_series(p)) >= 2]
        decreased = sum(install_decrease_flag(archive, p) for p in crawled)
        observations.append(EnforcementObservation(
            label=label, total=len(crawled), decreased=decreased))
    return observations


@dataclass(frozen=True)
class RankTimelinePoint:
    day: int
    percentile: Optional[float]  # None = not in chart that day


@dataclass(frozen=True)
class CaseStudyTimeline:
    """Figure 5: one app's chart-rank trajectory around its campaign."""

    package: str
    chart: str
    campaign_start: int
    campaign_end: int
    points: List[RankTimelinePoint]

    def appeared_after_campaign_start(self) -> bool:
        before = [p for p in self.points
                  if p.day < self.campaign_start and p.percentile is not None]
        after = [p for p in self.points
                 if p.day >= self.campaign_start and p.percentile is not None]
        return not before and bool(after)


def case_study_timeline(archive: CrawlArchive, dataset: OfferDataset,
                        package: str, chart: str) -> CaseStudyTimeline:
    start, end = dataset.campaign_window(package)
    points = [RankTimelinePoint(day=day, percentile=percentile)
              for day, percentile in archive.rank_timeline(package, chart)]
    return CaseStudyTimeline(package=package, chart=chart,
                             campaign_start=start, campaign_end=end,
                             points=points)
