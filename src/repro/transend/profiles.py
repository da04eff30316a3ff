"""TranSend user preferences (Section 3.1.4).

"The service interface to TranSend allows each user to register a
series of customization settings."  The preference schema covers the
distillation knobs the distillers understand; the validator enforces it
inside the ACID profile store (the consistency leg of ACID).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.tacc.customization import TransactionError

#: What a user gets before customizing anything (the Figure 3 defaults).
DEFAULT_PREFERENCES: Dict[str, Any] = {
    "quality": 25,          # JPEG quality after distillation
    "scale": 2,             # downscale factor per dimension
    "distill_images": True,
    "munge_html": True,
    "low_pass_radius": 0,
}

_VALIDATORS = {
    "quality": lambda value: isinstance(value, int) and 1 <= value <= 100,
    "scale": lambda value: isinstance(value, int) and 1 <= value <= 16,
    "distill_images": lambda value: isinstance(value, bool),
    "munge_html": lambda value: isinstance(value, bool),
    "low_pass_radius": lambda value: isinstance(value, int)
    and 0 <= value <= 8,
}


def preference_validator(user_id: str, key: str, value: Any) -> None:
    """ProfileStore validator hook for TranSend preferences."""
    check = _VALIDATORS.get(key)
    if check is None:
        return  # services may keep extra keys; TACC does not care
    if not check(value):
        raise TransactionError(
            f"invalid preference {key}={value!r} for user {user_id}")


def distilled_cache_key(url: str, preferences: Dict[str, Any]) -> str:
    """Objects are 'named by the object URL and the user preferences,
    which are used to derive distillation parameters' (Section 3.1.8)."""
    return (f"distilled:{url}|q={preferences.get('quality')}"
            f"|s={preferences.get('scale')}"
            f"|lp={preferences.get('low_pass_radius', 0)}")


def original_cache_key(url: str) -> str:
    return f"original:{url}"
