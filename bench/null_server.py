"""Calibration target for the load generator (stdlib only).

Answers request ``j`` on connection ``c`` with a canned ``{"result"``
frame exactly as long as the real portal's response to that request was,
doing no work of its own.  What the generator sustains against it is the
generator's ceiling (``loadgen.ceiling_ops_s``); a portal run is only
trusted while it stays under half of that.

Protocol: prints ``{"ready": true, "port": N}``, reads one JSON line
``{"sizes": [[...], [...]]}`` (one list of response sizes per
connection, in accept order), serves until every connection closes.
"""

import json
import socket
import struct
import sys
import threading

_BODY = b'{"result"' + b" " * (1 << 20)


def _serve(conn, sizes):
    frames = {}
    view = memoryview(bytearray(1 << 16))
    try:
        for size in sizes:
            got = 0
            while got < 4:
                count = conn.recv_into(view[got:4])
                if count == 0:
                    return
                got += count
            remaining = int.from_bytes(view[:4], "big")
            while remaining:
                count = conn.recv_into(view[: min(remaining, len(view))])
                if count == 0:
                    return
                remaining -= count
            frame = frames.get(size)
            if frame is None:
                body = (_BODY * (size // len(_BODY) + 1))[: size - 4]
                frame = frames[size] = struct.pack(">I", size - 4) + body
            conn.sendall(frame)
    finally:
        conn.close()


def main():
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    print(json.dumps({"ready": True, "port": listener.getsockname()[1]}), flush=True)
    sizes = json.loads(sys.stdin.readline())["sizes"]
    threads = []
    for per_connection in sizes:
        conn, _ = listener.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        thread = threading.Thread(target=_serve, args=(conn, per_connection))
        thread.start()
        threads.append(thread)
    listener.close()
    for thread in threads:
        thread.join()


if __name__ == "__main__":
    main()
