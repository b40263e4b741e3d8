"""Exceptions shared across parsers, mining, and the CLI; the input reader."""


class PatchSyntaxError(Exception):
    """A patch file's text form could not be parsed.

    Carries the 1-based (start, end) line span when known. Analysis code
    records the affected file version as unparseable instead of guessing.
    """

    def __init__(self, message: str, source_span: tuple[int, int] | None = None):
        self.source_span = source_span
        if source_span is not None:
            message = f"{message} (lines {source_span[0]}-{source_span[1]})"
        super().__init__(message)


class ConfigError(Exception):
    """Invalid configuration, filter, issue-link table, or verdict input."""


class GitError(Exception):
    """A git invocation failed or the repository is unreadable."""


def read_input(path: str, what: str) -> str:
    """Text of a user-named input file, read as UTF-8 text; one that cannot
    be opened or decoded is a ConfigError naming ``what`` and ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")
