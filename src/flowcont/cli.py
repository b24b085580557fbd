"""Command-line front end.

Subcommands: check (is one map flow-continuous over a group), ffset (the
divisor set of a map or a graph pair), count (how many maps are
flow-continuous), search (find a witness map), construct (build a pair
realizing a prescribed divisor set), selftest (seeded cross-checks).

Exit codes: 0 yes/pass, 1 no/fail, 2 unknown (budget ran out before a
decision), 3 usage or input error, 4 internal error (a crash such as a
stack overflow, or stdout closed before the answer was written; never an
answer).  --json prints one JSON object on stdout, whose status (yes, no,
unknown, error, error) is read off the exit code; plain output
otherwise.  ffset, count and search take --budget, a positive cap on the
frontier entries of the map-space pass.  Every answer comes by one
route; the definitional oracles re-check those routes in selftest only.
On two digon unions, search and ffset use cone arithmetic, which reads
no budget and needs memory linear in the largest source digon.  Counts
are printed in full, however many digits they have.

Graph arguments take a file path or builtin syntax "name" / "name:k",
with comma-separated parts unioned ("digon:9,digon:4").  Map arguments
take a file path, "identity" (or "bijection"), "constant:j", or an
explicit comma list of target edge indices.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

from .algebra import FFSet, GroupSyntaxError, exponent, parse_group
from .constructions import build_witness, verify_witness
from .decide import (
    EdgeMap,
    constant_map,
    ff_gcd,
    format_edge_map,
    gcd_and_certificate,
    index_bijection,
    parse_edge_map,
)
from .ffsets import count_ff_maps, exists_ff_map, ff_set_of_graphs
from .flows import DEFAULT_MAP_BUDGET, BudgetExceededError
from .graphs import (
    BUILTIN_NAMES,
    GraphFormatError,
    MultiDigraph,
    builtin,
    disjoint_union,
    format_digraph,
    parse_digraph,
)
from .selftest import DEFAULT_SEED, run_selftest

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


@dataclass(frozen=True)
class CommandResult:
    payload: dict
    exit_code: int
    lines: tuple[str, ...]

    @property
    def status(self) -> str:
        return ("yes", "no", "unknown", "error", "error")[self.exit_code]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # "unknown", so route usage problems to 3
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    """argparse type of --budget: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def parse_graph_argument(text: str) -> MultiDigraph:
    """Resolve a graph argument: builtins, builtin unions, or a file."""
    if not text:
        raise GraphFormatError("empty graph argument")
    parts = text.split(",")
    graphs = []
    for part in parts:
        name, _, parameter = part.partition(":")
        if name in BUILTIN_NAMES:
            graphs.append(builtin(name, int(parameter) if parameter else None))
        elif os.path.exists(part):
            with open(part, encoding="utf-8") as handle:
                graphs.append(parse_digraph(handle.read()))
        else:
            raise GraphFormatError(
                f"graph argument {part!r} is neither a builtin ({', '.join(BUILTIN_NAMES)}) nor a file"
            )
    return graphs[0] if len(graphs) == 1 else disjoint_union(graphs)


def parse_map_argument(text: str, source: MultiDigraph, target: MultiDigraph) -> EdgeMap:
    """Resolve a map argument: named forms, an index list, or a file."""
    if text in ("identity", "bijection"):
        return index_bijection(source, target)
    name, _, parameter = text.partition(":")
    if name == "constant":
        if not parameter:
            raise ValueError("constant map needs a target edge index, e.g. constant:0")
        return constant_map(source, target, int(parameter))
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if tokens and all(token.lstrip("-").isdigit() for token in tokens):
        return EdgeMap(source, target, tuple(int(token) for token in tokens))
    if os.path.exists(text):
        with open(text, encoding="utf-8") as handle:
            return parse_edge_map(handle.read(), source, target)
    raise ValueError(f"map argument {text!r} is neither a named form, an index list, nor a file")


def _parse_modulus(text: str) -> int:
    if text.strip().lower() == "z":
        return 0
    value = int(text)
    if value < 0:
        raise ValueError(f"modulus must be nonnegative or Z, got {text}")
    return value


def cmd_check(args) -> CommandResult:
    source = parse_graph_argument(args.g)
    target = parse_graph_argument(args.h)
    f = parse_map_argument(args.map, source, target)
    m = parse_group(args.group)
    # only the exponent matters; one with a free factor is 0, like Z
    gcd_value, certificate = gcd_and_certificate(f, exponent(m))
    payload = {"group": str(m), "gcd": gcd_value, "ff": certificate is None}
    if certificate is None:
        return CommandResult(
            payload, EXIT_YES, (f"yes: flow-continuous over {m} (discrepancy gcd {gcd_value})",)
        )
    payload["certificate"] = asdict(certificate)
    return CommandResult(
        payload, EXIT_NO,
        (
            f"no: not flow-continuous over {m} (discrepancy gcd {gcd_value})",
            f"certificate: vertex {certificate.vertex}, circuit {certificate.circuit}, "
            f"value {certificate.value}, modulus {certificate.modulus or 'Z'}",
        ),
    )


def cmd_ffset(args) -> CommandResult:
    source = parse_graph_argument(args.g)
    target = parse_graph_argument(args.h)
    payload = {}
    if args.map is not None:
        payload["gcd"] = ff_gcd(parse_map_argument(args.map, source, target))
        ff_set = FFSet.from_gcds([payload["gcd"]])
    else:
        ff_set = ff_set_of_graphs(source, target, budget=args.budget)
    payload.update(ff_set.to_json())
    if ff_set.all_of_n:
        line = "all n >= 1"
    else:
        line = " ".join(str(n) for n in ff_set.members()) or "empty: no map exists"
    return CommandResult(payload, EXIT_YES, (line,))


def cmd_count(args) -> CommandResult:
    source = parse_graph_argument(args.g)
    target = parse_graph_argument(args.h)
    m = parse_group(args.group)
    count = count_ff_maps(source, target, m, budget=args.budget)
    return CommandResult({"group": str(m), "count": count}, EXIT_YES, (f"{count}",))


def cmd_search(args) -> CommandResult:
    source = parse_graph_argument(args.g)
    target = parse_graph_argument(args.h)
    n = _parse_modulus(args.n)
    outcome = exists_ff_map(source, target, n, budget=args.budget)
    label = "Z" if n == 0 else str(n)
    if outcome.status == "found":
        witness = outcome.witness
        assert witness is not None
        body = format_edge_map(witness)
        payload = {
            "modulus": label,
            "witness": list(witness.assignment),
            "gcd": ff_gcd(witness),
            "nodes": outcome.nodes,
        }
        lines = (f"# witness map, flow-continuous for {label}",) + tuple(body.splitlines())
        return CommandResult(payload, EXIT_YES, lines)
    payload = {"modulus": label, "witness": None, "nodes": outcome.nodes}
    if outcome.status == "none":
        return CommandResult(payload, EXIT_NO, ("none",))
    return CommandResult(
        payload, EXIT_UNKNOWN, (f"unknown: budget exhausted after {outcome.nodes} nodes",)
    )


def cmd_construct(args) -> CommandResult:
    targets = [int(token) for token in args.t.split(",") if token.strip()] if args.t else []
    g, h, plan = build_witness(targets)
    report = verify_witness(plan)
    os.makedirs(args.out, exist_ok=True)
    g_path = os.path.join(args.out, "G.dg")
    h_path = os.path.join(args.out, "H.dg")
    plan_path = os.path.join(args.out, "plan.json")
    with open(g_path, "w", encoding="utf-8") as handle:
        handle.write(format_digraph(g))
    with open(h_path, "w", encoding="utf-8") as handle:
        handle.write(format_digraph(h))
    plan_record = plan.to_json()
    plan_record["verified"] = report.passed
    plan_record["ff_set"] = report.computed.to_json()
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan_record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    payload = {**plan_record, "files": [g_path, h_path, plan_path]}
    lines = (
        f"wrote {g_path}, {h_path}, {plan_path}",
        f"verification: {'pass' if report.passed else 'FAIL'} "
        f"(set {report.computed}, wanted {report.expected})",
    )
    return CommandResult(payload, EXIT_YES if report.passed else EXIT_NO, lines)


def cmd_selftest(args) -> CommandResult:
    results = run_selftest(seed=args.seed, deep=args.deep)
    lines = [f"seed {args.seed}"]
    for r in results:
        verdict = "ok" if r.passed else "FAIL"
        lines.append(
            f"{r.name}: {r.checks} checks, {verdict} ({r.seconds:.3f} s, {r.checks_per_s:.0f} checks/s)"
        )
        for failure in r.failures[:5]:
            lines.append(f"  {failure}")
    suites = [{**asdict(r), "passed": r.passed, "checks_per_s": r.checks_per_s} for r in results]
    exit_code = EXIT_YES if all(r.passed for r in results) else EXIT_NO
    return CommandResult({"seed": args.seed, "suites": suites}, exit_code, tuple(lines))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowcont", description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="emit one JSON object on stdout")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    check = commands.add_parser("check", help="decide flow-continuity of one map")
    check.add_argument("--g", required=True, help="source graph (file or builtin)")
    check.add_argument("--h", required=True, help="target graph (file or builtin)")
    check.add_argument("--map", required=True, help="edge map (file, identity, constant:j, or list)")
    check.add_argument("--group", required=True, help="group, e.g. Z, Z6, Z2xZ3")
    check.set_defaults(handler=cmd_check)

    ffset = commands.add_parser("ffset", help="divisor set of a map or a graph pair")
    ffset.add_argument("--g", required=True)
    ffset.add_argument("--h", required=True)
    ffset.add_argument("--map", help="restrict to one map instead of all maps")
    ffset.set_defaults(handler=cmd_ffset)

    count = commands.add_parser("count", help="count flow-continuous maps")
    count.add_argument("--g", required=True)
    count.add_argument("--h", required=True)
    count.add_argument("--group", required=True)
    count.set_defaults(handler=cmd_count)

    search = commands.add_parser("search", help="find a flow-continuous map")
    search.add_argument("--g", required=True)
    search.add_argument("--h", required=True)
    search.add_argument("--n", required=True, help="modulus, or Z for the integers")
    search.set_defaults(handler=cmd_search)
    for budgeted in (ffset, count, search):
        budgeted.add_argument(
            "--budget", type=positive_int, default=DEFAULT_MAP_BUDGET, help="frontier entry budget"
        )

    construct = commands.add_parser(
        "construct", help="build a pair realizing a divisor down-set"
    )
    construct.add_argument("--t", required=True, help="comma list of targets; empty for the empty set")
    construct.add_argument("--out", required=True, help="output directory")
    construct.set_defaults(handler=cmd_construct)

    selftest = commands.add_parser("selftest", help="run the seeded cross-check suites")
    selftest.add_argument("--deep", action="store_true", help="tenfold trial counts")
    selftest.add_argument("--seed", type=int, default=DEFAULT_SEED)
    selftest.set_defaults(handler=cmd_selftest)
    return parser


def _failure(exc: Exception) -> CommandResult:
    if isinstance(exc, BudgetExceededError):
        return CommandResult({"message": str(exc)}, EXIT_UNKNOWN, (f"unknown: {exc}",))
    if isinstance(exc, (GraphFormatError, GroupSyntaxError, ValueError, OSError)):
        return CommandResult({"message": str(exc)}, EXIT_USAGE, (f"error: {exc}",))
    # RecursionError and MemoryError included: exit 1 must stay a proven "no"
    message = f"internal error: {type(exc).__name__}: {exc}".splitlines()[0]
    return CommandResult({"message": message}, EXIT_INTERNAL, (message,))


def _render(result: CommandResult, json_mode: bool) -> str:
    if json_mode:
        return json.dumps({"status": result.status, **result.payload}, sort_keys=True)
    return "\n".join(result.lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # counts are printed in full, past the
    # interpreter's default cap on the digits of an int turned to text
    digit_cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_cap:
        sys.set_int_max_str_digits(0)
    try:
        result = args.handler(args)
        text = _render(result, args.json)
    except Exception as exc:
        result = _failure(exc)
        text = _render(result, args.json)
    finally:
        if digit_cap:
            sys.set_int_max_str_digits(digit_cap)
    print(text, file=sys.stderr if result.status == "error" and not args.json else sys.stdout)
    return result.exit_code


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the answer went undelivered, so never a "no"; devnull quiets the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    run()
