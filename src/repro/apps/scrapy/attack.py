"""The two spider attacks of paper Section 5.2.

**Blinding (chosen-insertion).**  The adversary owns the crawl's entry
page and fills it with links whose URLs are crafted to pollute the
spider's Bloom dupe filter.  She replays the spider's public pipeline on
a *shadow filter* offline, so each crafted link sets k fresh bits when
the real spider schedules it.  Once her site is crawled, the victim site
is then visited with an inflated false-positive rate: whole pages (and
their subtrees) are skipped as "already seen".

**Ghost hiding (query-only).**  The adversary wants her own pages *not*
crawled.  She publishes a chain of decoys ending in a ghost page whose
URL is forged as a false positive of the current filter (Fig. 7); the
spider crawls the decoys but always believes the ghost was already
visited.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.adversary.pollution import PollutionAttack
from repro.adversary.query import DecoyTree, GhostForgery
from repro.apps.scrapy.dupefilter import BloomDupeFilter
from repro.apps.scrapy.spider import CrawlStats, Spider
from repro.apps.scrapy.webgraph import WebGraph
from repro.core.bloom import BloomFilter
from repro.urlgen.faker import UrlFactory

__all__ = ["BlindingReport", "BlindingAttack", "GhostHidingReport", "GhostHidingAttack"]


@dataclass(frozen=True)
class BlindingReport:
    """Outcome of a blinding campaign."""

    malicious_links: int
    crafting_trials: int
    victim_pages: int
    victim_coverage_attacked: float
    victim_coverage_baseline: float
    filter_fpp_after_attack: float

    @property
    def blinded_fraction(self) -> float:
        """Share of the victim site the attack hid from the spider."""
        return self.victim_coverage_baseline - self.victim_coverage_attacked


class BlindingAttack:
    """Blind a Bloom-dedup spider by hosting a page of crafted links.

    Parameters
    ----------
    dupefilter_capacity / dupefilter_error_rate:
        The spider's public Bloom configuration (the adversary knows it).
    adversary_host:
        Host serving the malicious entry page and its link targets.
    """

    def __init__(
        self,
        dupefilter_capacity: int,
        dupefilter_error_rate: float,
        adversary_host: str = "evil.example",
        seed: int = 0xBAD,
    ) -> None:
        self.capacity = dupefilter_capacity
        self.error_rate = dupefilter_error_rate
        self.adversary_host = adversary_host
        self.seed = seed
        self.root_url = f"http://{adversary_host}/"

    def _fresh_dupefilter(self) -> BloomDupeFilter:
        return BloomDupeFilter(self.capacity, self.error_rate)

    def build_adversary_site(self, n_links: int) -> tuple[WebGraph, int]:
        """Craft the malicious page; returns (site, crafting trials).

        The shadow filter replays exactly what the real dupe filter will
        see: the root URL first, then each link in page order.
        """
        reference = self._fresh_dupefilter()
        shadow: BloomFilter = BloomFilter(
            reference.filter.m, reference.filter.k, reference.filter.strategy
        )
        shadow.add(self.root_url)

        factory = UrlFactory(seed=self.seed)
        prefix = f"http://{self.adversary_host}"
        attack = PollutionAttack(
            shadow,
            candidates=partial(factory.candidate_batch, prefix=prefix),
        )
        report = attack.run(n_links, insert=True)

        site = WebGraph()
        site.add_page(self.root_url, links=report.items)
        for link in report.items:
            site.add_page(link)  # leaf pages, no out-links
        return site, report.total_trials

    def run(self, victim: WebGraph, n_links: int) -> BlindingReport:
        """Crawl adversary-site-then-victim and measure lost coverage.

        The baseline crawl uses an identical but unpolluted dupe filter
        and no adversary site, isolating the attack's effect.
        """
        victim_root = victim.urls()[0]
        victim_urls = victim.urls()

        baseline_spider = Spider(victim, self._fresh_dupefilter())
        baseline = baseline_spider.crawl([victim_root])

        site, trials = self.build_adversary_site(n_links)
        world = WebGraph().merge(site).merge(victim)
        dupefilter = self._fresh_dupefilter()
        spider = Spider(world, dupefilter)
        # The adversary's page is the crawl entry point (paper: "her web
        # page is the starting point of the crawling process").
        spider.crawl([self.root_url])
        attacked = spider.crawl([victim_root])

        return BlindingReport(
            malicious_links=n_links,
            crafting_trials=trials,
            victim_pages=len(victim_urls),
            victim_coverage_attacked=attacked.coverage_of(victim_urls),
            victim_coverage_baseline=baseline.coverage_of(victim_urls),
            filter_fpp_after_attack=dupefilter.filter.current_fpp(),
        )


@dataclass(frozen=True)
class GhostHidingReport:
    """Outcome of a ghost-hiding campaign."""

    ghost_url: str
    decoys: tuple[str, ...]
    ghost_crawled: bool
    decoys_crawled: int
    crafting_trials: int


class GhostHidingAttack:
    """Hide a page from the spider by forging its URL as a false positive."""

    def __init__(self, dupefilter: BloomDupeFilter, seed: int = 0x6057) -> None:
        self.dupefilter = dupefilter
        self.seed = seed

    def run(
        self,
        world: WebGraph,
        crawl_first: list[str],
        depth: int = 3,
        root: str = "http://ghost-root.example",
    ) -> GhostHidingReport:
        """Crawl ``crawl_first``, then publish decoys+ghost and re-crawl.

        The ghost is crafted against the filter state *after* the first
        crawl; since Bloom bits only ever get set, it stays a false
        positive for the rest of the filter's life.
        """
        spider = Spider(world, self.dupefilter)
        spider.crawl(crawl_first)

        # Lay the decoy chain, then forge the ghost under its deepest path.
        segments = ["main", "tags", "app", "deep", "more", "extra"]
        decoys: list[str] = []
        path = root.rstrip("/")
        for level in range(depth):
            path = f"{path}/{segments[level % len(segments)]}"
            decoys.append(path)
        factory = UrlFactory(seed=self.seed)
        forgery = GhostForgery(
            self.dupefilter.filter,
            candidates=partial(factory.candidate_batch, prefix=path),
        )
        ghost_result = forgery.craft_one()
        tree = DecoyTree(root=root, decoys=tuple(decoys), ghost=ghost_result.item)

        # Publish the chain: root -> decoy1 -> ... -> ghost.
        chain = list(tree.pages)
        for parent, child in zip(chain, chain[1:]):
            world.add_page(parent, links=[child])
        world.add_page(tree.ghost)

        stats: CrawlStats = spider.crawl([tree.root])
        decoys_crawled = sum(1 for d in (tree.root, *tree.decoys) if d in stats.crawled)
        return GhostHidingReport(
            ghost_url=tree.ghost,
            decoys=tree.decoys,
            ghost_crawled=tree.ghost in stats.crawled,
            decoys_crawled=decoys_crawled,
            crafting_trials=ghost_result.trials,
        )
