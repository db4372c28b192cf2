"""Consistency of the documentation site (docs/ + mkdocs.yml + README).

CI builds the site with ``mkdocs build --strict``; this test catches the
same breakage classes locally without mkdocs installed: the nav must
reference existing pages, every page in docs/ must be reachable from the
nav, internal markdown links must resolve, and the required coverage
(architecture, all six example scenarios, the runtime guide, the
migration note) must actually be present.
"""

import re
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs"
MKDOCS = ROOT / "mkdocs.yml"

LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)")


def nav_pages(nav):
    """Flatten an mkdocs nav structure into page paths."""
    pages = []
    for entry in nav:
        if isinstance(entry, str):
            pages.append(entry)
        elif isinstance(entry, dict):
            for value in entry.values():
                if isinstance(value, str):
                    pages.append(value)
                else:
                    pages.extend(nav_pages(value))
    return pages


def load_config():
    # mkdocs.yml may use python-specific tags in general; ours must stay
    # safe_load-able so tooling (and this test) can parse it
    return yaml.safe_load(MKDOCS.read_text(encoding="utf-8"))


def test_mkdocs_config_is_valid_and_strict():
    config = load_config()
    assert config["strict"] is True
    assert config["docs_dir"] == "docs"
    assert config["theme"]["name"] == "readthedocs"  # bundled with mkdocs
    assert config["nav"], "the site needs an explicit nav"


def test_nav_references_existing_pages_and_covers_docs_dir():
    config = load_config()
    pages = nav_pages(config["nav"])
    for page in pages:
        assert (DOCS / page).is_file(), f"nav references missing page {page}"
    on_disk = {p.relative_to(DOCS).as_posix() for p in DOCS.rglob("*.md")}
    assert on_disk == set(pages), "every docs page must be in the nav (strict mode)"


@pytest.mark.parametrize(
    "page", sorted(p.relative_to(DOCS).as_posix() for p in DOCS.rglob("*.md"))
)
def test_internal_links_resolve(page):
    text = (DOCS / page).read_text(encoding="utf-8")
    for target in LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        resolved = ((DOCS / page).parent / target).resolve()
        assert resolved.exists(), f"{page}: broken link -> {target}"


def test_required_coverage_is_present():
    corpus = {
        page.name: page.read_text(encoding="utf-8") for page in DOCS.glob("*.md")
    }
    # architecture: the module map and the layering
    assert "repro.runtime" in corpus["architecture.md"]
    assert "repro.engine" in corpus["architecture.md"]
    # scenarios: all six examples, by file name
    examples = {p.stem for p in (ROOT / "examples").glob("*.py")}
    assert len(examples) == 6
    for name in examples:
        assert name in corpus["scenarios.md"], f"scenarios.md misses {name}"
    # runtime guide: the persistent layer plus the CLI
    for needle in ("DiskCache", "python -m repro", "cache_dir"):
        assert needle in corpus["runtime.md"]
    # performance guide: kernel layer, oracle, trajectory file
    for needle in (
        "repro.kernels",
        "DistanceOracle",
        "BENCH_results.json",
        "invalidat",
    ):
        assert needle in corpus["performance.md"], f"performance.md misses {needle}"
    # observability guide: instruments, exposition, and the CI gate
    for needle in (
        "repro.metrics",
        "NullRegistry",
        "render_text",
        "BENCH_history.json",
        "--metrics-out",
        "tolerance",
    ):
        assert needle in corpus["observability.md"], (
            f"observability.md misses {needle}"
        )
    # backends guide: identity contract, budgets, gauges, optional numpy
    for needle in (
        "MissingDependencyError",
        "byte-identical",
        "memory_budget_bytes",
        "repro_memory_held_bytes",
        "repro_memory_budget_bytes",
        "large_random_bipartite",
        "KN6",
    ):
        assert needle in corpus["backends.md"], f"backends.md misses {needle}"
    # and it is reachable from the perf guide and the module map
    for page in ("performance.md", "architecture.md"):
        assert "backends.md" in corpus[page], f"{page} misses the backends cross-link"
    # the runtime and dynamic guides cross-link into the kernel layer
    assert "performance.md" in corpus["runtime.md"]
    assert "performance.md" in corpus["dynamic.md"]
    # and all three perf-adjacent guides cross-link the metrics layer
    for page in ("performance.md", "runtime.md", "dynamic.md"):
        assert "observability.md" in corpus[page], f"{page} misses the cross-link"
    # server guide: protocol, tenancy, resume, drain, exposition
    for needle in (
        "ReproServer",
        "SchemaRegistry",
        "python -m repro serve",
        "continuation token",
        "disk-warm",
        "drain",
        "repro_queries_total",
        "/metrics",
    ):
        assert needle in corpus["server.md"], f"server.md misses {needle}"
    # the server guide is reachable from the layers it fronts
    for page in ("architecture.md", "runtime.md", "observability.md", "enumeration.md"):
        assert "server.md" in corpus[page], f"{page} misses the server cross-link"
    # load & soak guide: CLI, spec schema, budgets, verify, soak, report
    for needle in (
        "python -m repro load",
        "--smoke",
        "spec-template",
        "coordinated omission",
        "offered_rate",
        "latency_ms",
        "error_rates",
        "min_achieved_fraction",
        "bad_auth",
        "over_quota",
        "serial oracle",
        "allowed_growth",
        "verdict: PASS",
    ):
        assert needle in corpus["load.md"], f"load.md misses {needle}"
    # the load guide is reachable from the server and observability guides
    for page in ("server.md", "observability.md"):
        assert "load.md" in corpus[page], f"{page} misses the load cross-link"
    # resilience guide: fault plane, sites, deadlines, retries, chaos gate
    for needle in (
        "repro.faults",
        "FaultPlan",
        "deadline_ms",
        "RetryPolicy",
        "idempotency_key",
        "hello",
        "--chaos",
        "serial oracle",
        "disk-write-tear",
        "repro_deadline_exceeded_total",
    ):
        assert needle in corpus["resilience.md"], f"resilience.md misses {needle}"
    # and it is reachable from the layers whose failures it specifies
    for page in ("server.md", "load.md", "runtime.md"):
        assert "resilience.md" in corpus[page], (
            f"{page} misses the resilience cross-link"
        )
    # migration note and enumeration contract
    assert "MinimalConnectionFinder" in corpus["migration.md"]
    assert "extend_budget" in corpus["enumeration.md"]


def test_readme_is_a_landing_page_linking_into_docs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/" in readme
    for target in LINK.findall(readme):
        if target.startswith(("http://", "https://", "mailto:", "../")):
            # ../ links (the workflow badges) resolve on the forge, not here
            continue
        assert (ROOT / target).exists(), f"README: broken link -> {target}"
    # the landing page stays a landing page
    assert len(readme.splitlines()) < 120, "README grew back into a manual"
    assert "badge" in readme or "workflows" in readme  # CI + docs badges
