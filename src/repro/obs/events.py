"""The trace-event table: one row per event kind, stated once.

The observer's vocabulary — which typed events exist, what each one
carries and in which order, and which live counter one event bumps — is
this table. Everything that needs it derives it from here:
:meth:`~repro.obs.trace.Tracer.emit` refuses a kind without a row, the
:class:`~repro.obs.telemetry.TelemetryRegistry` rolls a count-only kind
up by reading its ``counter``, ``python -m repro validate`` checks an
exported ``.trace.jsonl`` with :func:`check_payload`, and DESIGN.md §8's
taxonomy is written from (and tested against) the rows.

Data only: nothing from ``repro`` is imported, so every layer that emits
events can import it first.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple, Optional


class EventKind(NamedTuple):
    """One typed trace event.

    ``fields`` are the payload keys in export order (JSONL key order is
    insertion order, so an emitter passes them in this order);
    ``optional`` the keys an event leaves out when they carry nothing;
    ``counter`` the telemetry series one event bumps by one at the fleet /
    client / node / structure scopes — None where nothing is counted or
    the registry has a roll-up of its own for the kind
    (``TelemetryRegistry._HANDLERS``).
    """

    doc: str
    fields: tuple[str, ...]
    optional: tuple[str, ...]
    counter: Optional[str]


def _kind(doc: str, keys: str, counter: Optional[str] = None) -> EventKind:
    """A row from its payload keys written once, in order, as one
    space-separated string; a trailing ``?`` marks a key optional."""
    names = keys.split()
    optional = tuple(name[:-1] for name in names if name.endswith("?"))
    return EventKind(doc, tuple(name.rstrip("?") for name in names), optional, counter)


EVENTS: dict[str, EventKind] = {
    "far_access": _kind(
        "One completed far access, attributed to the innermost open span. "
        "``addr`` is the far address the operation named and ``target`` "
        "(indirect ops) the resolved data word it landed on — what the "
        "offline race detector builds happens-before from. ``op`` is "
        "``external`` for an access charged on another subsystem's behalf.",
        "op charge_ns node? addr? target? nbytes_read? nbytes_written? forward_hops? "
        "segments? atomic?",
    ),
    "window": _kind(
        "One doorbell: the open submission window was charged. ``ops`` "
        "lists its member operations as ``{op, charge_ns, span_id}`` and "
        "``n`` counts them; ``reason`` says why the doorbell "
        "rang (stall / batch / fence / reap / drain).",
        "start_ns charged_ns serial_ns saved_ns reason n ops",
    ),
    "stall": _kind(
        "The submission window filled (``qp_depth`` entries) and was "
        "flushed before the next operation could be posted.",
        "qp_depth",
        counter="stalls",
    ),
    "timeout": _kind(
        "One attempt of a far operation timed out at ``node``.",
        "op node attempt",
        counter="timeouts",
    ),
    "backoff": _kind(
        "The retry policy backed off ``backoff_ns`` before re-attempt "
        "number ``attempt``.",
        "op node attempt backoff_ns",
        counter="backoffs",
    ),
    "breaker_trip": _kind(
        "The client's circuit breaker for ``node`` opened.",
        "node",
        counter="breaker_trips",
    ),
    "breaker_reject": _kind(
        "An operation was refused locally because the breaker for "
        "``node`` is open.",
        "node",
        counter="breaker_rejects",
    ),
    "notify": _kind(
        "The delivery engine decided one notification's ``outcome`` for "
        "this subscriber. ``watch_addr`` is the watched word: a delivered "
        "notification means its last write is visible to this client (a "
        "happens-before edge the offline race detector consumes). "
        "``coalesced`` appears when > 1 events were folded into one.",
        "outcome sub_id watch_addr coalesced? loss_warning?",
        counter="notifications",
    ),
    "corruption_detected": _kind(
        "A verified read caught a frame that failed its checksum — "
        "corruption (or a torn write) was *detected*, never returned.",
        "node addr payload_len",
        counter="verify_misses",
    ),
    "torn_write": _kind(
        "A write timed out after applying only a prefix: the far bytes "
        "are neither old nor new until the retry (or a verified read) "
        "heals them.",
        "op node addr attempt",
        counter="torn_writes",
    ),
    "repair_copy": _kind(
        "One chunk of a replica rebuild streamed dead→spare. ``done`` / "
        "``total`` make repair progress reconstructable from the event "
        "stream alone (a telemetry registry keeps it as the dead node's "
        "``repair_progress`` gauge).",
        "region dead_node spare_node blocks nbytes done total",
    ),
    "fence_reject": _kind(
        "A stale replica-map holder was fenced before writing anything.",
        "region held current",
        counter="fence_rejects",
    ),
    "extent_migrate": _kind(
        "One copy round of a live extent migration (src → staging slot "
        "on dst). ``done`` / ``total`` are bytes of the extent copied so "
        "far, so migration progress is reconstructable from the stream.",
        "extent src_node dst_node nbytes done total",
    ),
    "remap": _kind(
        "A migration committed: the extent's virtual range now "
        "translates to ``dst_node`` and its epoch advanced.",
        "extent src_node dst_node epoch",
    ),
    "drain": _kind(
        "A node was fully drained and removed from placement rotation.",
        "node extents_moved bytes_copied",
    ),
    "slo_alert": _kind(
        "The SLO monitor's burn-rate rule fired for ``objective`` at the "
        "close of ``window``. Its own ``ts_ns`` / ``client`` overwrite the "
        "envelope's in a flattened export record.",
        "objective window ts_ns short_burn long_burn client",
    ),
    "txn_begin": _kind(
        "An optimistic transaction opened (repro.txn; DESIGN.md §15).",
        "txn_id attempt",
    ),
    "txn_validate": _kind(
        "Commit-time read-set validation finished (one batched window).",
        "txn_id read_slots write_slots ok",
    ),
    "txn_commit": _kind(
        "A transaction committed (write-back done, locks advanced).",
        "txn_id cells kv_pairs runs",
        counter="txn_commits",
    ),
    "txn_abort": _kind(
        "A transaction aborted (conflict, fault, fence, or user).",
        "txn_id reason attempt",
        counter="txn_aborts",
    ),
}

EVENT_KINDS = tuple(EVENTS)

#: The keys ``TraceEvent.to_dict`` writes before the payload.
ENVELOPE = ("type", "kind", "ts_ns", "client", "span_id")


def check_payload(
    kind: str, payload: Mapping[str, Any], envelope: tuple[str, ...] = ()
) -> Optional[str]:
    """What is wrong with ``payload`` as a ``kind`` event, or None: the
    kind has a row, every required key is present, no key is undeclared,
    and the keys come in the row's order. A flattened export record
    (``TraceEvent.to_dict``, one ``.trace.jsonl`` line) is checked whole by
    passing :data:`ENVELOPE`: those keys come first, and a payload key that
    shares an envelope key's name sits in the envelope's position."""
    row = EVENTS.get(kind)
    if row is None:
        return f"undeclared event kind {kind!r}"
    fields = envelope + tuple(key for key in row.fields if key not in envelope)
    keys = list(payload)
    unknown = [key for key in keys if key not in fields]
    if unknown:
        return f"{kind}: undeclared key(s) {unknown}"
    missing = [key for key in fields if key not in keys and key not in row.optional]
    if missing:
        return f"{kind}: missing key(s) {missing}"
    if keys != [key for key in fields if key in keys]:
        return f"{kind}: keys {keys} are not in the declared order {list(fields)}"
    return None
