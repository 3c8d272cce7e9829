"""Relay server process for the relay_stream workload.

Usage: python3 relay_child.py <src dir> <client timeout us>

Prints the bound UDP port, serves until a line (or end of file) arrives on
standard input, then prints one JSON line with the server's counters and
its peak resident set size.
"""
import json
import resource
import sys
from dataclasses import asdict


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    from dancegraph.transport import RelayServer, ServerConfig

    config = ServerConfig(
        host="127.0.0.1", port=0, max_clients=2, client_timeout_us=int(sys.argv[2])
    )
    server = RelayServer(config).start()
    print(server.port, flush=True)
    sys.stdin.readline()
    stats = asdict(server.stats)
    server.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"stats": stats, "peak_rss_kb": peak_kb}), flush=True)


if __name__ == "__main__":
    main()
