"""Deterministic fault injection for the DSE stack's recovery paths.

Fault tolerance that is only exercised by real hardware failures is fault
tolerance that has never been tested.  This module gives the test suite a
deterministic, seedable way to *make* the failures happen — a sweep killed
right after its nth checkpoint, a cache segment or checkpoint blob
corrupted on its way to disk, a service lane hung past a client's
deadline — so every recovery path in the stack (checkpoint and segment
validation, resume, the service's typed errors) is driven by tests, not
luck.

Injection is strictly opt-in and happens through *explicit hooks* compiled
into the production code paths: each hook names a **site** and calls
:func:`maybe_fire` (actions) or :func:`maybe_mangle` (byte corruption).
With no plan installed — the production default — the hooks are two
attribute loads and a ``None`` check.

Sites wired into the stack:

``"checkpoint"``
    a *mangle* site: the serialized checkpoint blob passes through
    :func:`maybe_mangle` right before hitting disk, so corruption and
    truncation detection can be tested end to end;
``"checkpoint-saved"``
    fired by the sweeps right after every successful checkpoint write — the hook
    resumable-sweep tests use to SIGKILL (or abort) a run at a known
    persisted state;
``"cache-segment"``
    the persistent cache tier's *mangle* site: a serialized cache segment
    (:mod:`repro.engine.persist`) passes through :func:`maybe_mangle` right
    before hitting disk, so the warm-start path's corrupted-segment
    fallback to a cold start is tested end to end;
``"cache-segment-saved"``
    fired right after every successful cache-segment write — the hook the
    persistence tests use to SIGKILL a run at a known spilled state (and to
    assert no temporary file survives the kill);
``"service-frame"``
    the DSE service's inbound *mangle* site: every binary column frame a
    client sends passes through :func:`maybe_mangle` right after it is
    read off the socket, so truncated and corrupted frames are driven end
    to end (typed ``bad-request`` replies, admission untouched, the next
    request served normally);
``"service-request"``
    fired by the DSE service (:mod:`repro.service`) for every admitted
    client request, right before it is queued for the engine lane — a
    ``"raise"`` here drives the poisoned-request path (typed internal error
    to that client, service stays healthy);
``"service-batch"``
    fired on the service's engine lane immediately before a coalesced
    evaluation batch or a sweep is dispatched to the engine — a ``"hang"``
    here drives the deadline-expiry path (the client's deadline passes
    while the lane is stuck; affected requests get typed deadline errors),
    a ``"raise"`` the batch-failure path (typed internal errors, engine
    still healthy for the next batch);
``"service-response"``
    fired right before a response event is written back to a client — a
    ``"hang"`` simulates a slow consumer (intermediate front updates
    conflate while the final result is preserved), a ``"raise"`` a
    connection that broke mid-write (the disconnect path).
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "install_fault_plan",
    "clear_fault_plan",
    "installed_fault_plan",
    "inject_faults",
    "maybe_fire",
    "maybe_mangle",
]

#: Action verbs a :class:`FaultSpec` may carry, by hook kind.
_FIRE_ACTIONS = frozenset({"kill", "hang", "raise"})
_MANGLE_ACTIONS = frozenset({"flip-byte", "truncate"})


class InjectedFault(RuntimeError):
    """The exception raised by a ``"raise"`` fault action.

    A distinct type so tests can tell an injected failure from a real one;
    the recovery machinery deliberately does *not* special-case it — an
    injected fault must travel the exact path a real fault would.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: *where* (site), *when* (at), *what* (action).

    Attributes:
        site: the hook name this spec arms (see module docstring).
        action: ``"kill"`` (SIGKILL the current process), ``"hang"`` (sleep
            ``delay_s``), ``"raise"`` (raise :class:`InjectedFault`) for
            fire sites; ``"flip-byte"`` / ``"truncate"`` for mangle sites.
        at: invocation/submission indices the spec fires on; ``None`` means
            every invocation (useful to fail every call a test makes).
        delay_s: sleep duration of the ``"hang"`` action.
        offset: byte offset mangled by ``"flip-byte"`` / kept by
            ``"truncate"``; ``None`` picks a deterministic offset from the
            plan's seed.
    """

    site: str
    action: str
    at: tuple[int, ...] | None = None
    delay_s: float = 0.0
    offset: int | None = None

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("a fault spec needs a site name")
        if self.action not in _FIRE_ACTIONS | _MANGLE_ACTIONS:
            raise ValueError(f"unknown fault action '{self.action}'")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")

    def triggers(self, index: int) -> bool:
        """Whether the spec fires on this invocation index."""
        return self.at is None or index in self.at


class FaultPlan:
    """A deterministic, seedable schedule of injected faults.

    The plan holds fault specs plus one per-site invocation counter; hooks
    without an explicit index (every site wired into the stack) are
    numbered by that counter, a caller that passes one uses it directly.
    The seed only feeds the byte-corruption offsets, so two plans with
    equal specs and seeds mangle bytes identically.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = int(seed)
        self._counters: dict[str, int] = {}
        self._fired: list[tuple[str, int, str]] = []

    # ------------------------------------------------------------------ API

    @property
    def fired(self) -> list[tuple[str, int, str]]:
        """(site, index, action) triples of faults fired *in this process*."""
        return list(self._fired)

    def fire(self, site: str, index: int | None = None) -> None:
        """Run every armed action for one invocation of a fire site."""
        if index is None:
            index = self._counters.get(site, 0)
            self._counters[site] = index + 1
        for spec in self.specs:
            if spec.site != site or spec.action not in _FIRE_ACTIONS:
                continue
            if not spec.triggers(index):
                continue
            self._fired.append((site, index, spec.action))
            if spec.action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif spec.action == "hang":
                time.sleep(spec.delay_s)
            else:  # "raise"
                raise InjectedFault(
                    f"injected fault at site '{site}' (invocation {index})"
                )

    def mangle(self, site: str, data: bytes) -> bytes:
        """Corrupt a byte payload according to the armed mangle specs."""
        index = self._counters.get(site, 0)
        self._counters[site] = index + 1
        for spec in self.specs:
            if spec.site != site or spec.action not in _MANGLE_ACTIONS:
                continue
            if not spec.triggers(index):
                continue
            self._fired.append((site, index, spec.action))
            if not data:
                continue
            offset = spec.offset
            if offset is None:
                # Seeded so equal plans corrupt equal offsets — the byte is
                # chosen once per (seed, invocation), not per call order.
                rng = np.random.default_rng((self.seed, index))
                offset = int(rng.integers(0, len(data)))
            offset = min(max(offset, 0), len(data) - 1)
            if spec.action == "flip-byte":
                mangled = bytearray(data)
                mangled[offset] ^= 0xFF
                data = bytes(mangled)
            else:  # "truncate"
                data = data[:offset]
        return data


# --------------------------------------------------------------------------
# Global installation.  One plan per process; hooks consult it through the
# module-level helpers so production paths stay branch-cheap when no plan is
# installed.

_INSTALLED: FaultPlan | None = None


def install_fault_plan(plan: FaultPlan | None) -> None:
    """Install (or with ``None``, clear) the process-wide fault plan."""
    global _INSTALLED
    _INSTALLED = plan


def clear_fault_plan() -> None:
    """Remove the installed fault plan, restoring production behaviour."""
    install_fault_plan(None)


def installed_fault_plan() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return _INSTALLED


@contextlib.contextmanager
def inject_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager installing a plan for the duration of a test block."""
    install_fault_plan(plan)
    try:
        yield plan
    finally:
        clear_fault_plan()


def maybe_fire(site: str, index: int | None = None) -> None:
    """Fire a site's armed fault actions, if a plan is installed."""
    if _INSTALLED is not None:
        _INSTALLED.fire(site, index)


def maybe_mangle(site: str, data: bytes) -> bytes:
    """Pass bytes through a site's armed mangle specs, if a plan is installed."""
    if _INSTALLED is None:
        return data
    return _INSTALLED.mangle(site, data)
