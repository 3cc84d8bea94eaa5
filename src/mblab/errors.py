"""Shared exception types mapped to process exit codes by the CLI."""


class ManifestError(ValueError):
    """Invalid run configuration (exit code 2)."""


class NumericalError(RuntimeError):
    """NaN/Inf contamination, a CFL violation or diverged run, an overflow,
    or an audit point past its precision cap (exit code 3)."""
