"""Portal child: the serving plane under test, as shipped.

``AsyncPortalServer(itracker, workers=1)`` with the default telemetry
bundle.  One worker is pinned on purpose: with two, the same load runs
at either of two speeds depending on which loop thread the kernel hands
each connection to (see README, "Sizing findings").

Control pipe (JSON lines on stdin/stdout): ``cpu`` (process CPU so far),
``update`` (one ``observe_loads``), ``stats``, ``trace`` (the in-process
traced replay), ``quit``.
"""

import json
import resource
import sys
import time


def _reply(**message):
    sys.stdout.write(json.dumps(message, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def main():
    from repro.observability import flatten_snapshot
    from repro.portal.aserver import AsyncPortalServer

    import fixture

    itracker = fixture.build_itracker()
    server = AsyncPortalServer(itracker, workers=1)
    try:
        _reply(ready=True, port=server.address[1])
        for line in sys.stdin:
            message = json.loads(line)
            op = message["op"]
            if op == "cpu":
                _reply(cpu=time.process_time())
            elif op == "update":
                itracker.observe_loads(fixture.loads_from_wire(message["loads"]))
                _reply(version=itracker.version)
            elif op == "stats":
                flat = flatten_snapshot(server.telemetry.snapshot())
                _reply(
                    publications=flat.get("p4p_portal_view_publications_total", 0),
                    version=itracker.version,
                )
            elif op == "trace":
                import portal_trace

                _reply(**portal_trace.run(server, message))
            elif op == "quit":
                _reply(
                    cpu=time.process_time(),
                    rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                )
                break
            else:
                _reply(error=f"unknown op {op!r}")
    finally:
        server.close()


if __name__ == "__main__":
    main()
