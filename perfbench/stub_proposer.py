"""External proposer stand-in that replays a fixed candidate list.

Usage: python3 stub_proposer.py CANDIDATES_JSON

CANDIDATES_JSON holds a JSON list of rule programs in the external proposer
wire format.  The stub answers every request line on stdin, until EOF, with
the first ``num_samples`` programs of that list, so it serves both one
request per process and a persistent session.  It uses the standard library
only and never imports cascade_forge, which keeps its start-up cost to that
of the interpreter.
"""

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: stub_proposer.py CANDIDATES_JSON", file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        programs = json.load(fh)
    for line in sys.stdin:
        if not line.strip():
            continue
        request = json.loads(line)
        reply = {"v": 1, "programs": programs[: request["num_samples"]]}
        sys.stdout.write(json.dumps(reply, ensure_ascii=False) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
