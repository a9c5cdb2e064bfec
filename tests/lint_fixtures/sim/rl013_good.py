"""Fixture: RL013 — every event covered by a flagged family."""


class PingEvent:
    event = "ping"


class PongEvent:
    event = "pong"


EVENT_COVERAGE = {
    "ping": ("sequence",),
    "pong": ("sequence", "pairing"),
}


def validate(events, flag):
    open_pings = 0
    for ev in events:
        if ev.seq < 0:
            flag("sequence", ev.seq, ev.t, "negative sequence number")
        if ev.tag == "ping":
            open_pings += 1
        elif ev.tag == "pong":
            open_pings -= 1
            if open_pings < 0:
                flag("pairing", ev.seq, ev.t, "pong without a ping")
