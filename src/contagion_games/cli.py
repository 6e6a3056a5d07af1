"""Command-line runner: JSON experiment configs in, JSON + CSV results out.

One experiment per invocation.  The config is a single JSON document; any
top-level or nested field can be overridden on the command line with
``--dotted.key value`` flags, and the fully resolved config is embedded in
``result.json`` so every artifact records how it was produced.

Exit status: 0 success, 1 validation error, 2 state-space cap exceeded,
3 verification failure (gadget and couple-test verbs).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .errors import CapError, ValidationError, VerificationFailure
from .graphs import Graph, load_graph
from .dynamics import load_dynamics, load_schedule
from .engine import (
    DEFAULT_NODE_CAP,
    DEFAULT_TRIALS,
    EXACT_ENUMERATION,
    MONTE_CARLO,
    Allocation,
    GameSpec,
    StrategyProfile,
    estimate_payoffs,
    exact_payoffs,
    load_profile,
    monte_carlo_estimate,
    sample_payoffs,
)
from .equilibrium import (
    DEFAULT_ALLOCATION_CAP,
    DEFAULT_PAIR_CAP,
    PayoffOracle,
    _check_eps,
    budget_multiplier,
    find_pure_nash,
    price_of_anarchy,
)
from .coupling import MODE_ALIASES, couple_test
from .gadgets import GadgetSpec, build_gadget, verify_gadget
from .layered import DEFAULT_GRAPH_EDGE_CAP

VERBS = ("simulate", "payoff", "nash", "poa", "bm", "gadget", "couple-test")

ORACLE_NAMES = {"exact": EXACT_ENUMERATION, "mc": MONTE_CARLO, "monte_carlo": MONTE_CARLO}


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------


def _field_error(field: str, message: str) -> ValidationError:
    return ValidationError(f"config field '{field}': {message}")


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise _field_error("--config", f"file {path!r} does not exist")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _field_error("--config", f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise _field_error("--config", "top level must be a JSON object")
    return obj


def _parse_override_tokens(tokens: list[str]) -> list[tuple[str, str]]:
    pairs = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--"):
            raise _field_error(token, "expected a --dotted.key override flag")
        key = token[2:]
        if "=" in key:
            key, raw = key.split("=", 1)
        else:
            i += 1
            if i >= len(tokens):
                raise _field_error(key, "override flag is missing a value")
            raw = tokens[i]
        if not key:
            raise _field_error(token, "override flag has an empty key")
        pairs.append((key, raw))
        i += 1
    return pairs


def _apply_override(config: dict, dotted: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = dotted.split(".")
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = {}
            node[part] = child
        if not isinstance(child, dict):
            raise _field_error(dotted, f"cannot descend into non-object field {part!r}")
        node = child
    node[parts[-1]] = value


def _jsonify(value):
    """Plain JSON types only, with deterministic handling of non-finite floats."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return value


def _dump_json(path: str, plain) -> None:
    """Write a document of plain JSON types (see `_jsonify`), or JSON text
    already laid out as this writes it."""
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(plain, str):
            fh.write(plain)
            return
        json.dump(plain, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _graph_text(graph: Graph) -> str:
    """`_dump_json`'s text of `serialize_graph`'s document, formatted from the edge
    array in one `%` call: on a large graph the indented encoder costs ~10x as much."""
    pair = "    [\n      %d,\n      %d\n    ]"
    edges = ",\n".join([pair] * len(graph.edge_array)) % tuple(graph.edge_array.ravel().tolist())
    edges = f"[\n{edges}\n  ]" if edges else "[]"
    directed = "true" if graph.directed else "false"
    return f'{{\n  "directed": {directed},\n  "edges": {edges},\n  "n": {graph.n}\n}}\n'


def _dump_csv(path: str, rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def _sparse_text(alloc: Allocation) -> str:
    return " ".join(f"{v}:{c}" for v, c in alloc.seeds)


# ---------------------------------------------------------------------------
# Building game pieces from a config.
# ---------------------------------------------------------------------------


def _gadget_from(section, field: str) -> GadgetSpec:
    """The gadget of a config section: its 'kind' and the kind's parameters."""
    if not isinstance(section, dict) or "kind" not in section:
        raise _field_error(field, "must be an object with a 'kind' field")
    return build_gadget(section["kind"], {k: v for k, v in section.items() if k != "kind"})


def _graph_source(config: dict) -> tuple[Optional[Graph], Optional[GadgetSpec]]:
    source = config.get("graph")
    if source is None:
        raise _field_error("graph", "missing (expected a path, an inline document, "
                           "or a gadget description)")
    if not isinstance(source, dict):
        raise _field_error("graph", "must be a JSON object")
    if "gadget" in source:
        return None, _gadget_from(source["gadget"], "graph.gadget")
    if "path" in source:
        path = source["path"]
        if not isinstance(path, str) or not os.path.exists(path):
            raise _field_error("graph.path", f"file {path!r} does not exist")
        with open(path, "r", encoding="utf-8") as fh:
            return load_graph(fh.read()), None
    return load_graph(source), None


def _allocation_from(config: dict, field: str, n: int) -> Allocation:
    seeds = config.get(field)
    if not isinstance(seeds, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in seeds):
        raise _field_error(f"profile.{field}", "must be a list of vertex ids")
    return Allocation.from_seeds(n, seeds)


def _profile_from(config: dict, n: int) -> StrategyProfile:
    """Either {"red": {"counts": ...}, "blue": ...} (full count vectors, mixed
    strategies allowed) or the {"red_seeds": [...], "blue_seeds": [...]}
    shorthand with one vertex id per seed."""
    section = config.get("profile")
    if not isinstance(section, dict):
        raise _field_error("profile", "missing (expected red/blue sides or seed lists)")
    if "red" in section or "blue" in section:
        try:
            profile = load_profile(section)
        except ValidationError as exc:
            raise _field_error("profile", str(exc)) from None
        if profile.red.n != n:
            raise _field_error("profile",
                               f"counts have length {profile.red.n} but the graph has {n} vertices")
        return profile
    return StrategyProfile(_allocation_from(section, "red_seeds", n),
                           _allocation_from(section, "blue_seeds", n))


def _int_field(config: dict, field: str, default: Optional[int] = None,
               minimum: int = 0) -> Optional[int]:
    value = config.get(field, default)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise _field_error(field, f"must be an integer >= {minimum}, got {value!r}")
    return value


def _eps_field(section: dict, field: str) -> Optional[float]:
    """An optional `eps` of the section, reported as `field`, by the search's
    rule (`equilibrium._check_eps`)."""
    eps = section.get("eps")
    try:
        _check_eps(eps)
    except ValidationError:
        raise _field_error(field,
                           f"must be a number, got {eps!r}; eps is finite and >= 0") from None
    return eps


def _game_from_config(config: dict, need_profile: bool,
                      source: Optional[tuple[Optional[Graph], Optional[GadgetSpec]]] = None,
                      ) -> tuple[GameSpec, Optional[GadgetSpec]]:
    graph, gadget = source if source is not None else _graph_source(config)
    if gadget is not None:
        graph = gadget.build_graph(max_edges=_int_field(
            config, "max_graph_edges", DEFAULT_GRAPH_EDGE_CAP, minimum=1))
    dynamics = (load_dynamics(config["dynamics"]) if "dynamics" in config
                else gadget.dynamics if gadget is not None
                else None)
    if dynamics is None:
        raise _field_error("dynamics", "missing and no gadget default available")
    schedule = (load_schedule(config["schedule"]) if "schedule" in config
                else gadget.schedule if gadget is not None
                else None)
    if schedule is None:
        raise _field_error("schedule", "missing and no gadget default available")
    budget_red = _int_field(config, "budget_red", minimum=0)
    budget_blue = _int_field(config, "budget_blue", minimum=0)
    if budget_red is None or budget_blue is None:
        if gadget is not None:
            budget_red = budget_red if budget_red is not None else gadget.budget_red
            budget_blue = budget_blue if budget_blue is not None else gadget.budget_blue
        elif need_profile and isinstance(config.get("profile"), dict):
            profile = _profile_from(config, graph.n)
            budget_red = budget_red if budget_red is not None else profile.red.budget
            budget_blue = budget_blue if budget_blue is not None else profile.blue.budget
        else:
            raise _field_error("budget_red/budget_blue",
                               "missing and no gadget or profile to infer them from")
    return GameSpec(graph=graph, dynamics=dynamics, schedule=schedule,
                    budget_red=budget_red, budget_blue=budget_blue), gadget


def _oracle_method(config: dict) -> str:
    """The payoff method the config's `oracle` field names."""
    name = config.get("oracle", "exact")
    if not isinstance(name, str) or name not in ORACLE_NAMES:
        raise _field_error("oracle", f"must be one of {sorted(set(ORACLE_NAMES))}, got {name!r}")
    return ORACLE_NAMES[name]


def _oracle_fields(config: dict, method: str) -> dict:
    """The back end's keyword arguments for `method` from the config's fields:
    the node cap of enumeration, or the trials, seed and worker processes of
    Monte Carlo."""
    if method == EXACT_ENUMERATION:
        return {"node_cap": _int_field(config, "node_cap", DEFAULT_NODE_CAP, minimum=1)}
    return {"n_trials": _int_field(config, "n_trials", DEFAULT_TRIALS, minimum=1),
            "master_seed": _int_field(config, "master_seed", 0),
            "threads": _int_field(config, "threads", None, minimum=1)}


def _search_from_config(config: dict) -> tuple[GameSpec, PayoffOracle, dict]:
    """The game of a search verb, its payoff oracle, and the search's keyword
    arguments: eps and the allocation and pair caps."""
    game, _ = _game_from_config(config, need_profile=False)
    method = _oracle_method(config)
    oracle = PayoffOracle(game, method=method, **_oracle_fields(config, method))
    section = config.get("search", {})
    if not isinstance(section, dict):
        raise _field_error("search", "must be a JSON object")
    return game, oracle, {
        "eps": _eps_field(section, "search.eps"),
        "allocation_cap": _int_field(section, "allocation_cap",
                                     DEFAULT_ALLOCATION_CAP, minimum=1),
        "pair_cap": _int_field(section, "pair_cap", DEFAULT_PAIR_CAP, minimum=1),
    }


# ---------------------------------------------------------------------------
# Verb handlers.  Each returns (result dict, csv rows, extra files by name as
# plain JSON documents, failure).
# ---------------------------------------------------------------------------


def _verb_simulate(config: dict):
    game, _ = _game_from_config(config, need_profile=True)
    profile = _profile_from(config, game.graph.n)
    n_trials = _int_field(config, "n_trials", 1000, minimum=1)
    master_seed = _int_field(config, "master_seed", 0)
    chi_r, chi_b = sample_payoffs(game, profile, n_trials, master_seed)
    est = monte_carlo_estimate(chi_r, chi_b)
    rows = [["trial", "chi_R", "chi_B"]]
    rows.extend([i, int(r), int(b)] for i, (r, b) in enumerate(zip(chi_r, chi_b)))
    result = {
        "n_trials": n_trials,
        "master_seed": master_seed,
        "mean_chi_R": est.pi_R,
        "mean_chi_B": est.pi_B,
        "stderr_chi_R": est.stderr_R,
        "stderr_chi_B": est.stderr_B,
    }
    return result, rows, {}, None


def _verb_payoff(config: dict):
    method = _oracle_method(config)
    fields = _oracle_fields(config, method)
    source = _graph_source(config)
    gadget = source[1]
    if (method == EXACT_ENUMERATION and gadget is not None
            and "dynamics" not in config and "schedule" not in config):
        # The gadget's own exact back end answers without materialising its
        # graph, which enumeration could not finish at gadget sizes.
        est = gadget.profile_payoff_fn()(_profile_from(config, gadget.n_vertices))
    else:
        game, _ = _game_from_config(config, need_profile=True, source=source)
        profile = _profile_from(config, game.graph.n)
        backend = exact_payoffs if method == EXACT_ENUMERATION else estimate_payoffs
        est = backend(game, profile, **fields)
    return est.to_json_dict(), [list(est.CSV_HEADER), list(est.to_csv_row())], {}, None


def _verb_nash(config: dict):
    game, oracle, search = _search_from_config(config)
    report = find_pure_nash(game, oracle, **search)
    joints = report.joint_values()
    worst = min(joints, default=None)
    best = max(joints, default=None)
    rows = [["profile", "pi_R", "pi_B", "joint", "is_worst", "is_best"]]
    for red, blue, est in report.equilibria:
        profile_text = f"red={_sparse_text(red)} blue={_sparse_text(blue)}"
        rows.append([profile_text, est.pi_R, est.pi_B, est.joint,
                     est.joint == worst, est.joint == best])
    return report.to_json_dict(), rows, {}, None


def _verb_efficiency(config: dict, kind: str):
    game, oracle, search = _search_from_config(config)
    fn = price_of_anarchy if kind == "poa" else budget_multiplier
    report = fn(game, oracle, **search)
    doc = report.to_json_dict()
    header = ["kind", "value", "n_equilibria", "worst_nash_joint", "best_nash_joint",
              "max_joint", "statistical", "eps"]
    rows = [header, [doc.get(k) for k in header]]
    return doc, rows, {}, None


def _verb_gadget(config: dict):
    graph = config.get("graph")
    section = graph.get("gadget") if isinstance(graph, dict) else None
    spec = _gadget_from(config.get("gadget") if section is None else section, "gadget")
    eps = _eps_field(config, "eps")
    verification = verify_gadget(spec) if eps is None else verify_gadget(spec, eps=float(eps))

    edge_cap = _int_field(config, "max_graph_edges", DEFAULT_GRAPH_EDGE_CAP, minimum=1)
    if spec.n_edges <= edge_cap:
        graph_doc = _graph_text(spec.build_graph(max_edges=edge_cap))
    else:
        graph_doc = _jsonify({
            "materialized": False, "n": spec.n_vertices, "n_edges": spec.n_edges,
            "reason": f"edge count exceeds max_graph_edges={edge_cap}",
            "vertex_classes": {k: list(v) for k, v in spec.vertex_classes.items()}})
    spec_doc, result = spec.to_json_dict(), verification.to_json_dict()
    profile_keys = ("kind", "budget_red", "budget_blue", "dynamics", "schedule", "profiles",
                    "vertex_classes")
    prediction_keys = ("kind", "params", "ok", "flags", "predictions", "measured")
    extra = {"graph.json": graph_doc,
             "profile.json": _jsonify({k: spec_doc[k] for k in profile_keys}),
             "predictions.json": _jsonify({k: result[k] for k in prediction_keys})}
    failure = None
    if not verification.ok:
        problems = [row.name for row in verification.prediction_rows if row.ok is False]
        problems += [label for label in verification.profile_reports
                     if not verification.profile_ok(label)]
        problems += ["flagged" for _ in verification.flags]
        failure = (f"gadget verification failed ({', '.join(problems)}); "
                   "see result.json for details")
    return result, verification.csv_rows(), extra, failure


def _verb_couple_test(config: dict):
    game, _ = _game_from_config(config, need_profile=True)
    profile = _profile_from(config, game.graph.n)
    section = config.get("couple", {})
    if not isinstance(section, dict):
        raise _field_error("couple", "must be a JSON object")
    mode = section.get("mode")
    if not isinstance(mode, str) or mode not in MODE_ALIASES:
        raise _field_error("couple.mode",
                           f"must be one of {sorted(MODE_ALIASES)}, got {mode!r}")
    runs = _int_field(section, "runs", _int_field(config, "n_trials", 10_000, minimum=2),
                      minimum=2)
    if not profile.is_pure:
        raise _field_error("profile", "couple-test needs a pure profile: one count vector "
                                      "per side, not a list of weighted entries")
    red_seeds = [v for v, c in profile.red.seeds for _ in range(c)]
    blue_seeds = [v for v, c in profile.blue.seeds for _ in range(c)]
    result = couple_test(game.graph, red_seeds, blue_seeds, game.dynamics, game.schedule,
                         mode=mode, runs=runs,
                         master_seed=_int_field(config, "master_seed", 0))
    rows = [["metric", "value"], ["mode", result.mode], ["runs", result.runs],
            ["invariant_violations", result.invariant_violations]]
    for key in sorted(result.inequality_margins):
        rows.append([key, result.inequality_margins[key]])
    for key in sorted(result.p_values):
        rows.append([f"p_value_{key}", result.p_values[key]])
    failure = None
    if result.invariant_violations > 0:
        failure = (f"couple-test found {result.invariant_violations} invariant "
                   f"violations in {runs} runs")
    return result.to_json_dict(), rows, {}, failure


HANDLERS = {
    "simulate": _verb_simulate,
    "payoff": _verb_payoff,
    "nash": _verb_nash,
    "poa": lambda cfg: _verb_efficiency(cfg, "poa"),
    "bm": lambda cfg: _verb_efficiency(cfg, "bm"),
    "gadget": _verb_gadget,
    "couple-test": _verb_couple_test,
}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contagion-games",
        description="Competitive contagion experiments: simulation, exact payoffs, "
                    "equilibrium search, efficiency ratios, benchmark gadgets, and "
                    "coupled-run checks.")
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--out", help="output directory (default: current directory)")
    parser.add_argument("--seed", type=int, help="override master_seed")
    parser.add_argument("--trials", type=int, help="override n_trials")
    parser.add_argument("--threads", type=int,
                        help="worker processes for Monte Carlo payoffs "
                             "(results do not depend on this)")
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config["master_seed"] = args.seed
        if args.trials is not None:
            config["n_trials"] = args.trials
        if args.threads is not None:
            config["threads"] = args.threads
        if args.out is not None:
            config["out"] = args.out
        for key, raw in _parse_override_tokens(extra):
            _apply_override(config, key, raw)
        if "profile" in config and "search" in config:
            raise _field_error("profile/search",
                               "exactly one of them may be present, found both")
        result, rows, extra_files, failure = HANDLERS[args.verb](config)
        out_dir = config.get("out") or "."
        if not isinstance(out_dir, str):
            raise _field_error("out", f"must be a directory path, got {out_dir!r}")
        os.makedirs(out_dir, exist_ok=True)
        # The embedded config describes the experiment, not where its files
        # landed, so the output directory stays out of it.
        embedded = {k: v for k, v in config.items() if k != "out"}
        _dump_json(os.path.join(out_dir, "result.json"),
                   _jsonify({"verb": args.verb, "config": embedded, "result": result}))
        _dump_csv(os.path.join(out_dir, "result.csv"), rows)
        for name, doc in extra_files.items():
            _dump_json(os.path.join(out_dir, name), doc)
        if failure is not None:
            raise VerificationFailure(failure)
        return 0
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except CapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
