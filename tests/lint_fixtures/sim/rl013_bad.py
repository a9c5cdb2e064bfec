"""Fixture: RL013 — events escaping the validation registry.

One producer module carrying its own registry, with every mismatch
direction represented: an uncovered event, a registry entry for a ghost
event, and a family no validator flags.
"""


class PingEvent:
    event = "ping"


class OrphanEvent:  # finding: 'orphan' missing from EVENT_COVERAGE
    event = "orphan"


EVENT_COVERAGE = {
    "ping": ("sequence", "never-checked"),  # finding: family never flagged
    "ghost": ("sequence",),  # finding: no producer defines 'ghost'
}


def validate(events, flag):
    for ev in events:
        if ev.seq < 0:
            flag("sequence", ev.seq, ev.t, "negative sequence number")
