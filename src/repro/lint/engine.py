"""Core of the ``reprolint`` static-analysis pass.

The engine runs two passes.  Pass one parses every file once with the
stdlib :mod:`ast` module and hands each tree to the per-file rules
(RL001–RL006) — pure functions of the parse tree plus a little file
context (most importantly the path *relative to the repro package*, so
path-scoped rules like RL004 can tell ``scc/tarjan.py`` apart from
``datasets/generators.py``).  Pass two, enabled by ``--strict``, builds a
whole-project symbol index (:mod:`repro.lint.index`) over the same parse
trees and evaluates the cross-module concurrency rules
(:mod:`repro.lint.concurrency`, RL101–RL104) against it.  Violations from
both passes flow through the same inline-suppression filter.

Suppression grammar (comments, parsed with :mod:`tokenize` so strings that
merely *contain* the text do not count)::

    x = risky()               # reprolint: disable=RL003 - justification
    y = risky()               # reprolint: disable=RL003,RL005
    # reprolint: disable-file=RL001 - whole-file waiver

``disable`` applies to every line spanned by the violating statement;
``disable-file`` applies to the whole file.  ``all`` is accepted in place of
a rule list.  Every suppression should carry a justification after the rule
ids — the grammar stops at the first token that is not a rule id or comma.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Violation",
    "FileContext",
    "Suppressions",
    "SuppressionComment",
    "ParsedFile",
    "parse_source",
    "collect_files",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "package_relative",
]

#: Rule id used for files the engine cannot parse at all.
PARSE_ERROR_RULE = "RL000"
#: Rule id for stale suppression comments (``--report-unused-suppressions``).
UNUSED_SUPPRESSION_RULE = "RL007"

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable-file|disable)\s*=\s*"
    r"(?P<rules>[A-Za-z][A-Za-z0-9]*(?:\s*,\s*[A-Za-z][A-Za-z0-9]*)*)"
)


@dataclass(frozen=True)
class Violation:
    """One rule hit: ``path:line:col: RLxxx message``."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: Last line of the offending statement; a suppression comment anywhere
    #: in ``line..end_line`` silences the violation (multi-line calls).
    end_line: int = 0

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


@dataclass(frozen=True)
class SuppressionComment:
    """One ``# reprolint: disable[...]`` comment, as written in source."""

    line: int
    kind: str  # "disable" | "disable-file"
    rules: frozenset

    def covers(self, violation: Violation) -> bool:
        """Would this comment silence ``violation``?"""
        if not {"ALL", violation.rule_id} & self.rules:
            return False
        if self.kind == "disable-file":
            return True
        last = max(violation.end_line, violation.line)
        return violation.line <= self.line <= last


@dataclass
class Suppressions:
    """Inline suppression state for one file."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    file_level: set[str] = field(default_factory=set)
    #: Every comment as written, for stale-waiver detection (RL007).
    comments: "list[SuppressionComment]" = field(default_factory=list)

    def silences(self, violation: Violation) -> bool:
        if {"ALL", violation.rule_id} & self.file_level:
            return True
        last = max(violation.end_line, violation.line)
        for line in range(violation.line, last + 1):
            rules = self.by_line.get(line)
            if rules and {"ALL", violation.rule_id} & rules:
                return True
        return False


@dataclass
class FileContext:
    """Everything a rule may look at for one file."""

    display: str
    source: str
    tree: ast.Module
    #: Path relative to the ``repro`` package root (``"scc/tarjan.py"``), or
    #: relative to the scan root for files outside the package (so fixture
    #: trees can mirror the package layout for path-scoped rules).
    package_rel: str

    def violation(self, node: ast.AST, rule_id: str, message: str) -> Violation:
        return Violation(
            path=self.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
            end_line=getattr(node, "end_lineno", 0) or 0,
        )


def parse_suppressions(source: str) -> Suppressions:
    """Extract ``# reprolint: disable=...`` comments via the tokenizer."""
    supp = Suppressions()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            rules = {r.strip().upper() for r in match.group("rules").split(",")}
            kind = match.group("kind")
            supp.comments.append(SuppressionComment(
                line=tok.start[0], kind=kind, rules=frozenset(rules),
            ))
            if kind == "disable-file":
                supp.file_level |= rules
            else:
                supp.by_line.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass  # the ast parse will report the real problem
    return supp


def package_relative(path: Path, root: Path | None = None) -> str:
    """Path relative to the ``repro`` package (or to the scan root).

    ``src/repro/scc/tarjan.py`` -> ``scc/tarjan.py``.  Files outside a ``repro``
    directory fall back to the path relative to ``root`` so that fixture
    trees (``tests/lint_fixtures/scc/bad.py``) can opt into path-scoped
    rules by mirroring the package layout.
    """
    parts = path.resolve().parts
    for i in range(len(parts) - 1, 0, -1):
        if parts[i - 1] == "repro":
            return "/".join(parts[i:])
    if root is not None:
        try:
            rel = path.resolve().relative_to(root.resolve())
            return rel.as_posix()
        except ValueError:
            pass
    return path.name


@dataclass
class ParsedFile:
    """One file after pass-one parsing (tree, suppressions, or error)."""

    ctx: "FileContext | None"
    suppressions: Suppressions
    error: "Violation | None" = None


def parse_source(
    source: str,
    display: str = "<string>",
    package_rel: str | None = None,
) -> ParsedFile:
    """Parse one source string into a :class:`ParsedFile`."""
    supp = parse_suppressions(source)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return ParsedFile(
            ctx=None,
            suppressions=supp,
            error=Violation(
                path=display,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                rule_id=PARSE_ERROR_RULE,
                message=f"could not parse file: {exc.msg}",
            ),
        )
    ctx = FileContext(
        display=display,
        source=source,
        tree=tree,
        package_rel=package_rel if package_rel is not None else display,
    )
    return ParsedFile(ctx=ctx, suppressions=supp)


def parse_file(path: Path, root: Path | None = None) -> ParsedFile:
    """Parse one file on disk into a :class:`ParsedFile`."""
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return ParsedFile(
            ctx=None,
            suppressions=Suppressions(),
            error=Violation(
                path=str(path),
                line=1,
                col=1,
                rule_id=PARSE_ERROR_RULE,
                message=f"could not read file: {exc}",
            ),
        )
    return parse_source(
        source,
        display=str(path),
        package_rel=package_relative(path, root),
    )


def collect_files(paths: Iterable[Path]) -> "list[ParsedFile]":
    """Parse every python file under ``paths`` (pass one, no rules yet)."""
    return [parse_file(file, root=root)
            for file, root in iter_python_files(paths)]


def _check_file(
    pf: ParsedFile, rules: "Iterable[object]"
) -> "list[Violation]":
    found: "list[Violation]" = []
    for rule in rules:
        if not rule.applies(pf.ctx):  # type: ignore[attr-defined]
            continue
        found.extend(rule.check(pf.ctx))  # type: ignore[attr-defined]
    return found


def _stale_suppressions(
    parsed: "list[ParsedFile]",
    raw_by_file: "dict[str, list[Violation]]",
    checked_ids: "set[str]",
) -> "list[Violation]":
    """RL007: per-rule findings for waivers that no longer silence anything.

    A comment's rule id is *stale* when no pre-filter violation of that
    rule is covered by the comment.  Rule ids outside ``checked_ids`` are
    skipped — a waiver for a rule this run did not evaluate (e.g. RL104
    without ``--strict``) cannot be judged stale.
    """
    found: "list[Violation]" = []
    for pf in parsed:
        if pf.ctx is None:
            continue
        raw = raw_by_file.get(pf.ctx.display, [])
        for comment in pf.suppressions.comments:
            ids = sorted(comment.rules)
            if "ALL" in comment.rules:
                ids = ["ALL"]
            for rule_id in ids:
                if rule_id != "ALL" and rule_id not in checked_ids:
                    continue
                probe = comment.rules if rule_id == "ALL" \
                    else frozenset({rule_id})
                narrowed = SuppressionComment(
                    line=comment.line, kind=comment.kind, rules=probe,
                )
                if any(narrowed.covers(v) for v in raw):
                    continue
                what = ("suppression" if rule_id == "ALL"
                        else f"suppression of {rule_id}")
                where = ("in this file" if comment.kind == "disable-file"
                         else "on this line")
                found.append(Violation(
                    path=pf.ctx.display,
                    line=comment.line,
                    col=1,
                    rule_id=UNUSED_SUPPRESSION_RULE,
                    message=(
                        f"stale {what}: the rule no longer fires {where}"
                        f" — remove the waiver"
                    ),
                ))
    return found


def lint_source(
    source: str,
    display: str = "<string>",
    package_rel: str | None = None,
    rules: "Iterable[object] | None" = None,
) -> list[Violation]:
    """Lint one source string and return unsuppressed violations, sorted."""
    from .rules import default_rules

    active = list(default_rules() if rules is None else rules)
    pf = parse_source(source, display=display, package_rel=package_rel)
    if pf.error is not None:
        return [pf.error]
    found = _check_file(pf, active)
    return sorted(
        (v for v in found if not pf.suppressions.silences(v)),
        key=Violation.sort_key,
    )


def lint_file(
    path: Path,
    root: Path | None = None,
    rules: "Iterable[object] | None" = None,
) -> list[Violation]:
    """Lint one file on disk."""
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [
            Violation(
                path=str(path),
                line=1,
                col=1,
                rule_id=PARSE_ERROR_RULE,
                message=f"could not read file: {exc}",
            )
        ]
    return lint_source(
        source,
        display=str(path),
        package_rel=package_relative(path, root),
        rules=rules,
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[tuple[Path, Path]]:
    """Yield ``(file, scan_root)`` for every ``.py`` under ``paths``.

    Directories are walked recursively in sorted order so reports are stable
    across filesystems; ``__pycache__`` is skipped.
    """
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if "__pycache__" in file.parts:
                    continue
                yield file, path
        else:
            yield path, path.parent


def lint_paths(
    paths: Iterable[Path],
    rules: "Iterable[object] | None" = None,
    project_rules: "Iterable[object] | None" = None,
    report_unused: bool = False,
) -> list[Violation]:
    """Lint every python file under ``paths``; returns sorted violations.

    ``rules`` are the per-file pass; ``project_rules`` (RL101–RL104, or
    any object with ``check_project(index)``) trigger the project pass: a
    :class:`~repro.lint.index.ProjectIndex` is built over every parsed
    file and each project rule runs once against it.  With
    ``report_unused``, suppression comments that no longer silence any
    evaluated rule are reported as RL007.
    """
    from .rules import default_rules

    active = list(default_rules() if rules is None else rules)
    project = list(project_rules) if project_rules is not None else []
    parsed = collect_files(paths)

    raw_by_file: "dict[str, list[Violation]]" = {}
    errors: "list[Violation]" = []
    for pf in parsed:
        if pf.ctx is None:
            if pf.error is not None:
                errors.append(pf.error)
            continue
        raw_by_file[pf.ctx.display] = _check_file(pf, active)

    if project:
        from .index import build_index

        index = build_index(pf.ctx for pf in parsed if pf.ctx is not None)
        for rule in project:
            for violation in rule.check_project(index):  # type: ignore[attr-defined]
                raw_by_file.setdefault(violation.path, []).append(violation)

    suppress_map = {
        pf.ctx.display: pf.suppressions for pf in parsed
        if pf.ctx is not None
    }
    kept = list(errors)
    for display, violations in raw_by_file.items():
        supp = suppress_map.get(display, Suppressions())
        kept.extend(v for v in violations if not supp.silences(v))
    if report_unused:
        checked = {r.rule_id for r in active}  # type: ignore[attr-defined]
        checked |= {r.rule_id for r in project}  # type: ignore[attr-defined]
        kept.extend(_stale_suppressions(parsed, raw_by_file, checked))
    return sorted(kept, key=Violation.sort_key)
