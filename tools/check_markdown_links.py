#!/usr/bin/env python3
"""Checks that local markdown links resolve to real files.

    python3 tools/check_markdown_links.py README.md docs

Arguments are markdown files or directories (scanned recursively for
*.md). For every inline link or image ``[text](target)`` whose target is
not external (http/https/mailto) or a pure intra-page anchor, the target
path — resolved relative to the containing file, with any #anchor
stripped — must exist. Exits 0 when every link resolves, 1 with one line
per broken link otherwise.

Stdlib only: runs anywhere CI has a Python 3, no pip install needed.
Used by the markdown-links CI job (.github/workflows/ci.yml) so README
and docs/ cross-references can't silently rot.
"""

import re
import sys
from pathlib import Path

# Inline links/images: [text](target) / ![alt](target). Reference-style
# definitions ("[id]: target") are rare here and intentionally ignored.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
EXTERNAL = ("http://", "https://", "mailto:")


def markdown_files(args):
    for arg in args:
        path = Path(arg)
        if path.is_dir():
            yield from sorted(path.rglob("*.md"))
        elif path.is_file():
            yield path
        else:
            raise FileNotFoundError(f"no such file or directory: {arg}")


def check_file(md: Path):
    broken = []
    text = md.read_text(encoding="utf-8")
    # Drop fenced code blocks: their bracketed text is code, not links.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (md.parent / relative).exists():
            broken.append((target, md))
    return broken


def main(argv):
    if len(argv) < 2:
        print("usage: check_markdown_links.py <file-or-dir>...", file=sys.stderr)
        return 2
    files = list(markdown_files(argv[1:]))
    if not files:
        print("check_markdown_links: no markdown files found", file=sys.stderr)
        return 2
    broken = []
    for md in files:
        broken.extend(check_file(md))
    for target, md in broken:
        print(f"BROKEN  {md}: ({target})")
    print(f"check_markdown_links: {len(files)} file(s), {len(broken)} broken link(s)")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
