"""Command-line harness: validation, evaluation, ratio sweeps, reproductions.

Exit codes: 0 on success, 2 on input or validation errors, 3 when a resource
cap would be exceeded. Output is JSON by default (CSV via --format csv) and is
byte-identical across runs for fixed flags, including --seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from .core import (
    CapExceededError,
    Order,
    ValidationError,
    load_instance,
    load_order,
    read_json,
    save_instance,
    save_order,
)
from .evaluation import (
    DEFAULT_PERM_CAP,
    Objective,
    eval_exact,
    monte_carlo,
    order_ratio_sweep,
)
from .families import (
    FamilyInstance,
    example1,
    golden_lb,
    maxprob_lb,
    single_threshold_family,
    single_threshold_ratio_curve,
    threshold_for_alpha,
)
from .policies import GoldenPolicy, MaxProbPolicy, Policy, SingleThresholdPolicy, make_policy
from .thresholds import LAMBDA, LN_INV_LAMBDA, PHI


def _parse_order(text: str) -> Order:
    if os.path.exists(text):
        return load_order(text)
    return Order.from_string(text)


def _parse_orders(text: str) -> list[Order]:
    if os.path.exists(text):
        data = read_json(text)
        try:
            return [Order.from_json_dict({"order": seq}) for seq in data["orders"]]
        except (TypeError, KeyError, ValidationError):
            raise ValidationError(
                'orders file must be {"orders": [[ids...], ...]} with integer ids'
            ) from None
    return [Order.from_string(chunk) for chunk in text.split(";") if chunk.strip()]


def _emit(args: argparse.Namespace, data: dict, table: Optional[list[list]] = None) -> None:
    """Print a command's result: ``data`` as JSON, or CSV under ``--format csv``.

    The CSV is ``table`` when given, else the scalar items of ``data`` as
    ``name,value`` rows. Floats are written by ``repr`` in both formats.
    """
    if args.format == "json":
        sys.stdout.write(json.dumps(data, indent=2) + "\n")
        return
    if table is None:
        scalars = [[k, v] for k, v in data.items() if not isinstance(v, (list, tuple, dict))]
        table = [["name", "value"], *scalars]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerows([repr(x) if isinstance(x, float) else x for x in row] for row in table)


def cmd_constants(args: argparse.Namespace) -> int:
    _emit(args, {"phi": PHI, "one_over_phi": 1.0 / PHI, "lambda": LAMBDA, "ln_inv_lambda": LN_INV_LAMBDA})
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    order = _parse_order(args.order)
    objective = Objective.parse(args.obj)
    policy = make_policy(args.policy, instance, order)
    if args.mc:
        result = monte_carlo(instance, order, policy, objective, samples=args.mc, seed=args.seed)
    else:
        result = eval_exact(instance, order, policy, objective)
    _emit(args, {k: v for k, v in asdict(result).items() if v is not None})
    return 0


def cmd_ratio(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    objective = Objective.parse(args.obj)
    policy = make_policy(args.policy, instance)
    orders = _parse_orders(args.orders) if args.orders else None
    report = order_ratio_sweep(instance, policy, objective, orders=orders, perm_cap=args.perm_cap)
    data = {
        "per_order": [
            {"order": row.order.sequence, "alg": row.alg, "opt": row.opt, "ratio": row.ratio,
             "degenerate": row.degenerate, "method": row.method}
            for row in report.per_order
        ],
        "min_ratio": report.min_ratio,
        "argmin_order": report.argmin_order.sequence,
    }
    table = [["order", "alg", "opt", "ratio", "method"]] + [
        [",".join(map(str, row.order.sequence)), row.alg, row.opt, row.ratio, row.method]
        for row in report.per_order
    ]
    _emit(args, data, table)
    return 0


def _save_family(fam: FamilyInstance, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    save_instance(fam.instance, os.path.join(directory, "instance.json"))
    for name, order in fam.canonical_orders:
        save_order(order, os.path.join(directory, f"{name}.json"))


def cmd_reproduce(args: argparse.Namespace) -> int:
    if args.family == "example1":
        fam = example1(eps=args.eps)
        report = _family_report(fam, GoldenPolicy(fam.instance), Objective.expectation())
    elif args.family == "golden-lb":
        fam = golden_lb(eps=args.eps, step=args.step)
        report = _family_report(fam, GoldenPolicy(fam.instance), Objective.expectation())
    elif args.family == "maxprob-lb":
        fam = maxprob_lb(n=args.n)
        report = _family_report(fam, MaxProbPolicy(fam.instance), Objective.winprob())
        accept_branch = next(r["alg"] for r in report["orders"] if r["name"] == "decreasing")
        report["accept_branch_winprob"] = accept_branch
        report["accept_branch_minus_lambda"] = accept_branch - LAMBDA
    else:
        T = args.T if args.T is not None else threshold_for_alpha(args.n, 1.12324)
        fam = single_threshold_family(args.n, T)
        curve = single_threshold_ratio_curve()
        exact = eval_exact(
            fam.instance,
            fam.order("three_period"),
            SingleThresholdPolicy(float(T)),
            Objective.winprob(0.0),
        ).value
        report = {
            "family": fam.name,
            "parameters": fam.parameters,
            "alpha_star": curve.alpha_star,
            "max_ratio": curve.max_ratio,
            "exact_winprob": exact,
            "closed_form_winprob": fam.predicted_limit,
            "exact_minus_closed_form": exact - fam.predicted_limit,
            "limit_note": fam.limit_note,
        }

    if args.emit:
        _save_family(fam, args.emit)
        report["emitted_to"] = args.emit
    _emit(args, report)
    return 0


def _family_report(fam: FamilyInstance, policy: Policy, objective: Objective) -> dict:
    """Sweep ``policy`` over the family's canonical orders and report each ratio."""
    named = fam.canonical_orders
    report = order_ratio_sweep(fam.instance, policy, objective, orders=[order for _, order in named])
    rows = [
        {"name": name, "order": row.order.sequence, "alg": row.alg, "opt": row.opt, "ratio": row.ratio}
        for (name, _), row in zip(named, report.per_order)
    ]
    # Two names may share one order (golden_lb's pi and pi_x_1); the last one
    # names the worst order.
    argmin = [name for name, order in named if order == report.argmin_order][-1]
    return {
        "family": fam.name,
        "parameters": fam.parameters,
        "orders": rows,
        "min_ratio": report.min_ratio,
        "argmin_order": argmin,
        "predicted_limit": fam.predicted_limit,
        "limit_note": fam.limit_note,
        "min_ratio_minus_limit": report.min_ratio - fam.predicted_limit,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prophet-order",
        description="Order-unaware stopping policies, order-aware benchmarks, exact evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="print phi, 1/phi, lambda, ln(1/lambda)")
    p_const.add_argument("--format", choices=("json", "csv"), default="json")
    p_const.set_defaults(fn=cmd_constants)

    p_eval = sub.add_parser("evaluate", help="evaluate a policy on one arrival order")
    p_eval.add_argument("-i", "--instance", required=True, help="instance JSON path")
    p_eval.add_argument("-o", "--order", required=True, help="comma-separated ids or JSON path")
    p_eval.add_argument("-p", "--policy", required=True, help="policy spec, e.g. golden or threshold:1.5")
    p_eval.add_argument("--obj", required=True, help="expectation or winprob[:theta]")
    p_eval.add_argument("--mc", type=int, default=0, help="Monte Carlo sample count (0 = exact)")
    p_eval.add_argument("--seed", type=int, default=0, help="seed for --mc")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.set_defaults(fn=cmd_evaluate)

    p_ratio = sub.add_parser("ratio", help="ratio vs the order-aware optimum across orders")
    p_ratio.add_argument("-i", "--instance", required=True)
    p_ratio.add_argument("-p", "--policy", required=True)
    p_ratio.add_argument("--obj", required=True)
    p_ratio.add_argument("--orders", default=None,
                         help='semicolon-separated id lists, or a JSON path {"orders": [...]}')
    p_ratio.add_argument("--perm-cap", type=int, default=DEFAULT_PERM_CAP)
    p_ratio.add_argument("--format", choices=("json", "csv"), default="json")
    p_ratio.set_defaults(fn=cmd_ratio)

    p_rep = sub.add_parser("reproduce", help="run a worst-case family and report ratios vs limits")
    p_rep.set_defaults(fn=cmd_reproduce)
    # Each family takes its own flags, after its name, and the two shared ones.
    families = p_rep.add_subparsers(dest="family", metavar="family", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--emit", default=None, help="directory to write the family's JSON files")
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    p_ex1 = families.add_parser("example1", parents=[shared], help="sqrt(2), 1 and a rare box; 1/sqrt(2)")
    p_ex1.add_argument("--eps", type=float, default=1e-3, help="rare value's probability (default: %(default)s)")
    p_glb = families.add_parser("golden-lb", parents=[shared], help="golden's worst case; 1/phi")
    p_glb.add_argument("--eps", type=float, default=1e-4, help="rare value's probability (default: %(default)s)")
    p_glb.add_argument("--step", type=float, default=0.05,
                       help="spacing of the values from phi down to 1 (default: %(default)s)")
    p_mlb = families.add_parser("maxprob-lb", parents=[shared], help="maxprob's worst case; ln(1/lambda)")
    p_mlb.add_argument("--n", type=int, default=200, help="number of rare boxes (default: %(default)s)")
    p_st = families.add_parser("single-threshold", parents=[shared], help="the single-threshold ceiling ~0.57")
    p_st.add_argument("--n", type=int, default=10000, help="number of boxes (default: %(default)s)")
    p_st.add_argument("--T", type=int, default=None,
                      help="the threshold value (default: the one for alpha = 1.12324 at this n)")

    # main reports a flag a leaf parser does not read under that parser's usage.
    for leaf in (p_const, p_eval, p_ratio, p_ex1, p_glb, p_mlb, p_st):
        leaf.set_defaults(parser=leaf)

    return parser


# main parses every call with one tree: a parse leaves the tree as it found
# it, and building it takes about as long as a small command.
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, leftover = _parser().parse_known_args(argv)
    if leftover:
        args.parser.error(f"unrecognized arguments: {' '.join(leftover)}")
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
