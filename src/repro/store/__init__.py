"""Content-addressed result store — the product's storage layer.

:class:`ResultStore` keeps every artifact (trajectories, ground states)
exactly once under sha256-named object files with a JSON manifest index,
keyed by config hash so any sweep, campaign or service tenant anywhere
serves a hit. Writes are tmp-then-``os.replace`` atomic; reads re-verify
size and digest and quarantine anything corrupt instead of resuming from
wrong physics. ``store=`` is the one persistence argument of every sweep,
campaign and service entry point.
"""

from .store import ResultStore, ground_state_hash

__all__ = ["ResultStore", "ground_state_hash"]
