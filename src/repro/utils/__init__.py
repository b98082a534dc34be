"""Shared utilities: seeding and serialization."""

from .rng import seed_everything, spawn_rng
from .serialization import (
    history_from_dict,
    history_to_dict,
    load_history,
    load_mask,
    load_state,
    save_history,
    save_mask,
    save_state,
)

__all__ = [
    "seed_everything",
    "spawn_rng",
    "save_state",
    "load_state",
    "save_mask",
    "load_mask",
    "save_history",
    "load_history",
    "history_to_dict",
    "history_from_dict",
]
