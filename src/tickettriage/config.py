"""key=value configuration files with typed access.

A config file holds one `key = value` pair per line; `#` starts a comment.
CLI flags override file values, which override the built-in defaults.
"""

from __future__ import annotations

from .errors import ParameterError

# known keys and their types; unknown keys are rejected to catch typos
_SCHEMA: dict[str, type] = {
    "seed": int,
    "top_n": int,
    "conf_resolv_cutoff": float,
    "conf_prob_cutoff": float,
    "conf_subfield_cutoff": float,
    "image_only_fraction": float,
    "count": int,
    "mode": str,
}


def parse_value(key: str, raw: str):
    if key not in _SCHEMA:
        raise ParameterError(f"unknown config key {key!r}")
    try:
        return _SCHEMA[key](raw)
    except ValueError as exc:
        raise ParameterError(f"bad value for {key!r}: {raw!r}") from exc


def load_config(path: str) -> dict:
    """Parse a key=value file into a typed dict."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = parse_value(key, raw)
    return values


def merged_config(file_values: dict, cli_values: dict) -> dict:
    """CLI overrides file; None CLI values mean 'not given'."""
    merged = dict(file_values)
    merged.update({k: v for k, v in cli_values.items() if v is not None})
    return merged
