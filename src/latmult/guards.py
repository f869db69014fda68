"""Resource guards shared by the enumeration-heavy entry points."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its size guard and the call did not lift it."""


def check_guard(within: bool, allow_large: bool, message: str) -> None:
    """Raise ResourceLimitError unless the size is in bounds or allow_large is set."""
    if within or allow_large:
        return
    raise ResourceLimitError(f"{message}; pass allow_large=True (CLI: --allow-large)")
