"""Drive the command-line interface end to end from Python.

Each call mirrors a shell invocation of the flowcont tool; the argv
lists below are exactly what you would type after the program name.
Prints every command, its output, and its exit code.
"""

import tempfile

from flowcont import cli

commands = [
    ["check", "--g", "digon:3", "--h", "dicycle:3", "--map", "identity", "--group", "Z3"],
    ["check", "--g", "k4", "--h", "digon:3", "--map", "0,1,2,2,1,0", "--group", "Z3"],
    ["ffset", "--g", "digon:9", "--h", "digon:7"],
    # Z6 and Z2xZ3 share exponent 6, so the two counts are equal
    ["count", "--g", "digon:2", "--h", "digon:3", "--group", "Z6"],
    ["count", "--g", "digon:2", "--h", "digon:3", "--group", "Z2xZ3"],
    ["search", "--g", "digon:9", "--h", "digon:7", "--n", "6"],
    ["search", "--g", "dicycle:3", "--h", "digon:2", "--n", "2"],
]

with tempfile.TemporaryDirectory() as scratch:
    commands.append(["construct", "--t", "2,3", "--out", scratch])
    for argv in commands:
        print("$ flowcont " + " ".join(argv))
        code = cli.main(argv)
        print(f"  -> exit {code}")
        print()
