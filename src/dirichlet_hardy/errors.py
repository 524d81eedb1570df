"""Exception types shared across the package."""

import os

DEFAULT_MEMORY_CAP = 2_000_000_000
MEMORY_CAP_ENV = "DIRICHLET_HARDY_MEMORY_CAP"


class SieveLimitError(ValueError):
    """An index exceeds the sieve limit; the caller must re-sieve with a larger table."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed the configured memory cap or another hard resource."""

    def __init__(self, message: str, cap_bytes: int | None = None):
        if cap_bytes is not None:
            message = f"{message} (cap {cap_bytes} bytes, set {MEMORY_CAP_ENV} to raise it)"
        super().__init__(message)
        self.cap_bytes = cap_bytes


def memory_cap_bytes() -> int:
    raw = os.environ.get(MEMORY_CAP_ENV)
    if raw is None:
        return DEFAULT_MEMORY_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{MEMORY_CAP_ENV} must be an integer byte count, got {raw!r}")
    if cap <= 0:
        raise ValueError(f"{MEMORY_CAP_ENV} must be positive, got {cap}")
    return cap


def check_memory(need: int, what: str) -> None:
    """Raise ResourceLimitError if the `need` bytes that `what` takes exceed the memory cap."""
    cap = memory_cap_bytes()
    if need > cap:
        raise ResourceLimitError(f"{what} needs {need} bytes", cap)
