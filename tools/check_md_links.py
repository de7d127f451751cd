#!/usr/bin/env python3
"""Offline markdown link checker for the repo's documentation.

Walks the given markdown files (default: README.md and docs/*.md) and
verifies that

* relative links and images point at files/directories that exist
  (anchors are stripped; ``docs/DATABASE.md#query-language`` checks
  ``docs/DATABASE.md``);
* intra-document anchors (``#section``) match a heading slug in the
  same file, using GitHub's slugging rules (lowercase, punctuation
  dropped, spaces to dashes);
* no link is empty;
* every backticked dotted name that starts with ``repro.`` or with a
  ``repro`` subpackage (``suite.metrics.format_metrics``,
  ``repro.docdb.format_plan``; an optional trailing ``()`` is allowed)
  still names something: its module imports and each further part
  resolves by ``getattr``.  Prose that names a deleted function fails
  the check like a link to a deleted file.

External ``http(s)://`` and ``mailto:`` links are *not* fetched — CI
must stay offline/deterministic — they are only checked for obvious
malformation (whitespace).  Exit code is the number of broken links
and stale code references.

Usage::

    python tools/check_md_links.py            # default doc set
    python tools/check_md_links.py FILE...    # explicit files
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import re
import sys
from typing import Iterable, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import repro  # noqa: E402  (needs ``src`` on the path)

#: ``[text](target)`` / ``![alt](target)`` — target up to the first
#: unescaped ``)``; optional ``"title"`` suffixes are stripped below.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+(?:\s+\"[^\"]*\")?)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
_CODE_FENCE_RE = re.compile(r"^(```|~~~)")
_SUBPACKAGES = sorted(
    m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
)
_CODE_REF_RE = re.compile(
    r"`((?:repro|%s)(?:\.\w+)+)(?:\(\))?`" % "|".join(_SUBPACKAGES)
)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip())
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links → text
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(markdown: str) -> List[str]:
    slugs: List[str] = []
    in_fence = False
    for line in markdown.splitlines():
        if _CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING_RE.match(line)
        if match:
            slugs.append(github_slug(match.group(1)))
    return slugs


def _prose_lines(markdown: str) -> Iterable[str]:
    """Every line outside fenced code blocks."""
    in_fence = False
    for line in markdown.splitlines():
        if _CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield line


def iter_links(markdown: str) -> Iterable[str]:
    for line in _prose_lines(markdown):
        for match in _LINK_RE.finditer(line):
            target = match.group(1).split(' "')[0].strip()
            yield target


def iter_code_refs(markdown: str) -> Iterable[str]:
    """Backticked dotted names rooted in the ``repro`` package."""
    for line in _prose_lines(markdown):
        for match in _CODE_REF_RE.finditer(line):
            yield match.group(1)


def resolves(name: str) -> bool:
    """Whether ``name`` (``repro.``-prefixed or not) imports and getattrs."""
    parts = name.split(".")
    if parts[0] != "repro":
        parts.insert(0, "repro")
    obj = repro
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            return False
    return True


def check_file(path: str) -> List[Tuple[str, str]]:
    """Broken links in one markdown file as ``(target, reason)`` pairs."""
    with open(path, encoding="utf-8") as fh:
        markdown = fh.read()
    slugs = heading_slugs(markdown)
    broken: List[Tuple[str, str]] = []
    for target in iter_links(markdown):
        if not target:
            broken.append((target, "empty link"))
        elif target.startswith(("http://", "https://", "mailto:")):
            if any(c.isspace() for c in target):
                broken.append((target, "malformed external link"))
        elif target.startswith("#"):
            if github_slug(target[1:]) not in slugs:
                broken.append((target, "no such heading anchor"))
        else:
            rel = target.split("#", 1)[0]
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), rel)
            )
            if not os.path.exists(resolved):
                broken.append((target, f"missing file: {resolved}"))
    for name in iter_code_refs(markdown):
        if not resolves(name):
            broken.append((name, "stale code reference"))
    return broken


def default_files() -> List[str]:
    files = [os.path.join(REPO_ROOT, "README.md")]
    docs_dir = os.path.join(REPO_ROOT, "docs")
    for name in sorted(os.listdir(docs_dir)):
        if name.endswith(".md"):
            files.append(os.path.join(docs_dir, name))
    return files


def main(argv: List[str]) -> int:
    files = argv or default_files()
    total_broken = 0
    total_links = 0
    total_refs = 0
    for path in files:
        with open(path, encoding="utf-8") as fh:
            markdown = fh.read()
        total_links += sum(1 for _ in iter_links(markdown))
        total_refs += sum(1 for _ in iter_code_refs(markdown))
        for target, reason in check_file(path):
            rel_path = os.path.relpath(path, REPO_ROOT)
            print(f"{rel_path}: broken {target!r} ({reason})")
            total_broken += 1
    checked = [os.path.relpath(p, REPO_ROOT) for p in files]
    print(
        f"checked {total_links} links and {total_refs} code references "
        f"across {len(checked)} files: {total_broken} broken"
    )
    return total_broken


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
