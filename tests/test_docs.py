"""The documentation is part of tier-1: links resolve, examples run.

CI has a dedicated ``docs`` job running the same two checks
(``tools/check_md_links.py`` and ``python -m doctest
docs/DATABASE.md``); these tests keep them enforced locally too.
"""

from __future__ import annotations

import doctest
import importlib.util
import os

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir)
)


def _load_link_checker():
    spec = importlib.util.spec_from_file_location(
        "check_md_links",
        os.path.join(REPO_ROOT, "tools", "check_md_links.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_markdown_links_resolve(capsys):
    checker = _load_link_checker()
    broken = checker.main([])
    output = capsys.readouterr().out
    assert broken == 0, f"broken documentation links:\n{output}"
    # The default set must include the database reference.
    assert any("DATABASE.md" in f for f in checker.default_files())


def test_database_md_doctest():
    results = doctest.testfile(
        os.path.join(REPO_ROOT, "docs", "DATABASE.md"),
        module_relative=False,
        verbose=False,
    )
    assert results.attempted > 0
    assert results.failed == 0


def test_link_checker_detects_breakage(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text(
        "# Title\n\n[ok](#title)\n[bad](#missing-anchor)\n"
        "[gone](no_such_file.md)\n",
        encoding="utf-8",
    )
    checker = _load_link_checker()
    broken = checker.check_file(str(bad))
    assert {reason.split(":")[0] for _, reason in broken} == {
        "no such heading anchor",
        "missing file",
    }


def test_link_checker_detects_stale_code_reference(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text(
        "`repro.suite.metrics.format_metrics` and `suite.metrics` live,\n"
        "`suite.metrics.merge_snapshots` and `repro.docdb.gone()` do not;\n"
        "`net.batch_series` is a counter name, not a module.\n"
        "```\n`suite.metrics.in_a_fence`\n```\n",
        encoding="utf-8",
    )
    checker = _load_link_checker()
    assert checker.check_file(str(bad)) == [
        ("suite.metrics.merge_snapshots", "stale code reference"),
        ("repro.docdb.gone", "stale code reference"),
    ]


def test_monitor_md_event_table_matches_event_types():
    """docs/MONITOR.md's journal reference must cover EVENT_TYPES exactly.

    A diff test, not a subset test: documenting a type that no longer
    exists is as wrong as shipping an undocumented one.
    """
    import re

    from repro.monitor.journal import EVENT_TYPES

    with open(
        os.path.join(REPO_ROOT, "docs", "MONITOR.md"), encoding="utf-8"
    ) as fh:
        text = fh.read()
    section = text.split("## Journal event reference", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([a-z_]+)` \|", section, re.M))
    assert documented == set(EVENT_TYPES), (
        f"docs/MONITOR.md event table out of sync: "
        f"undocumented={sorted(set(EVENT_TYPES) - documented)} "
        f"stale={sorted(documented - set(EVENT_TYPES))}"
    )


def test_monitor_md_slo_table_matches_defaults():
    """The SLO schema table's defaults must match FlowSLO's real ones."""
    from dataclasses import fields

    from repro.monitor.slo import FlowSLO

    with open(
        os.path.join(REPO_ROOT, "docs", "MONITOR.md"), encoding="utf-8"
    ) as fh:
        text = fh.read()
    for f in fields(FlowSLO):
        assert f"`{f.name}`" in text, f"FlowSLO.{f.name} missing from docs"


def test_storage_md_op_table_matches_wal_ops():
    """docs/STORAGE.md's op reference must cover WAL_OPS exactly.

    A diff test, not a subset test: documenting an op that no longer
    exists is as wrong as shipping an undocumented one.
    """
    import re

    from repro.docdb.wal import WAL_OPS

    with open(
        os.path.join(REPO_ROOT, "docs", "STORAGE.md"), encoding="utf-8"
    ) as fh:
        text = fh.read()
    section = text.split("### WAL operation reference", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([a-z_]+)` \|", section, re.M))
    assert documented == set(WAL_OPS), (
        f"docs/STORAGE.md op table out of sync: "
        f"undocumented={sorted(set(WAL_OPS) - documented)} "
        f"stale={sorted(documented - set(WAL_OPS))}"
    )


def test_storage_md_fsync_table_matches_policies():
    """The fsync trade-off table must cover FSYNC_POLICIES exactly."""
    import re

    from repro.docdb.wal import FSYNC_POLICIES

    with open(
        os.path.join(REPO_ROOT, "docs", "STORAGE.md"), encoding="utf-8"
    ) as fh:
        text = fh.read()
    section = text.split("### fsync policy trade-off", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([a-z]+)` \|", section, re.M))
    assert documented == set(FSYNC_POLICIES), (
        f"docs/STORAGE.md fsync table out of sync: "
        f"undocumented={sorted(set(FSYNC_POLICIES) - documented)} "
        f"stale={sorted(documented - set(FSYNC_POLICIES))}"
    )


def test_storage_md_example_is_consistent():
    """The quickstart snippet must name real API: open/checkpoint."""
    from repro.docdb.client import DocDBClient

    with open(
        os.path.join(REPO_ROOT, "docs", "STORAGE.md"), encoding="utf-8"
    ) as fh:
        text = fh.read()
    for attr in ("open", "checkpoint"):
        assert hasattr(DocDBClient, attr)
        assert attr in text, f"STORAGE.md never mentions DocDBClient.{attr}"


def test_no_module_imports_threading():
    """STORAGE.md states that the store is single-threaded and takes no
    locks; a module that imports ``threading`` must revisit that first."""
    import ast

    src_root = os.path.join(REPO_ROOT, "src", "repro")
    offenders = []
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for name in filenames:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "threading" for m in modules):
                    offenders.append(os.path.relpath(path, REPO_ROOT))
    assert not offenders, f"modules importing threading: {sorted(offenders)}"
    with open(
        os.path.join(REPO_ROOT, "docs", "STORAGE.md"), encoding="utf-8"
    ) as fh:
        assert "single-threaded" in fh.read()


def test_architecture_md_net_counter_table_matches_metrics():
    """The fast-path counter table must cover the ``net.<slot>`` names
    of every ``NetCounters`` slot exactly.

    A diff test, not a subset test: documenting a counter that no
    longer exists is as wrong as shipping an undocumented one.
    """
    import re

    from repro.netsim.counters import NetCounters

    with open(
        os.path.join(REPO_ROOT, "docs", "ARCHITECTURE.md"), encoding="utf-8"
    ) as fh:
        text = fh.read()
    section = text.split("## Measurement fast path", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([a-z_.]+)` \|", section, re.M))
    canonical = {f"net.{slot}" for slot in NetCounters.__slots__}
    assert documented == canonical, (
        f"docs/ARCHITECTURE.md net counter table out of sync: "
        f"undocumented={sorted(canonical - documented)} "
        f"stale={sorted(documented - canonical)}"
    )
