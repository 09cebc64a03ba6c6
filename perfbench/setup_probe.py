"""Set-up time in a fresh interpreter: ``import cmcheck`` plus parsing.

Reads ``{"src": <dir holding cmcheck>, "texts": [<program text>, ...]}``
on standard input and prints the seconds taken to import cmcheck and
parse every text.  ``run.py`` starts it several times and reports the
median as ``setup_s``.
"""

import json
import sys
from time import perf_counter


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    started = perf_counter()
    from cmcheck import lang

    for text in job["texts"]:
        lang.parse_program(text)
    print(perf_counter() - started)


if __name__ == "__main__":
    main()
