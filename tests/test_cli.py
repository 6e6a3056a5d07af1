"""End-to-end command-line runs: configs in, JSON/CSV artifacts out, exit codes."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import contagion_games
from contagion_games import Graph, ValidationError, build_gadget, layered, serialize_graph
from contagion_games.cli import _graph_text, _parse_override_tokens, run


def micro_graph():
    edges = [[0, 1], [0, 2]] + [[3, v] for v in range(4, 13)]
    return {"n": 13, "directed": True, "edges": edges}


def linear_dynamics():
    return {"f": {"kind": "power", "r": 1.0}, "g": {"kind": "tullock", "s": 1.0}}


def follower_schedule():
    return {"kind": "single_pass",
            "order": [v for v in range(13) if v not in (0, 3)]}


def base_config(**extra):
    config = {"graph": micro_graph(), "dynamics": linear_dynamics(),
              "schedule": follower_schedule()}
    config.update(extra)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def read_result(out_dir):
    with open(out_dir / "result.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(out_dir, name="result.csv"):
    with open(out_dir / name, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# simulate / payoff
# ---------------------------------------------------------------------------


def test_simulate_writes_deterministic_artifacts(tmp_path):
    config = write_config(tmp_path, base_config(
        profile={"red_seeds": [3], "blue_seeds": [0]}, n_trials=40))
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(["simulate", "--config", config, "--out", str(out)]) == 0
        outputs.append((out / "result.json").read_bytes()
                       + (out / "result.csv").read_bytes())
    assert outputs[0] == outputs[1]
    doc = read_result(tmp_path / "a")
    assert doc["verb"] == "simulate"
    assert "out" not in doc["config"]
    assert doc["result"]["n_trials"] == 40
    assert doc["result"]["mean_chi_R"] >= 1.0
    rows = read_csv(tmp_path / "a")
    assert rows[0] == ["trial", "chi_R", "chi_B"]
    assert len(rows) == 41


def test_trials_and_seed_shorthands_override_the_config(tmp_path):
    config = write_config(tmp_path, base_config(
        profile={"red_seeds": [3], "blue_seeds": [0]}, n_trials=40, master_seed=1))
    out = tmp_path / "out"
    assert run(["simulate", "--config", config, "--out", str(out),
                "--trials", "7", "--seed", "99"]) == 0
    doc = read_result(out)
    assert doc["result"]["n_trials"] == 7
    assert doc["result"]["master_seed"] == 99
    assert doc["config"]["n_trials"] == 7


def test_exact_payoff_of_the_contested_hub(tmp_path):
    config = write_config(tmp_path, base_config(
        profile={"red_seeds": [3], "blue_seeds": [3]}))
    out = tmp_path / "out"
    assert run(["payoff", "--config", config, "--out", str(out)]) == 0
    doc = read_result(out)
    assert doc["result"]["pi_R"] == 5.0
    assert doc["result"]["pi_B"] == 5.0
    assert doc["result"]["method"] == "exact-enumeration"
    rows = read_csv(out)
    assert rows[0] == ["pi_R", "pi_B", "method", "n_trials", "stderr_R", "stderr_B"]
    assert rows[1][0] == "5.0"


def test_monte_carlo_payoff_is_thread_invariant(tmp_path):
    config = write_config(tmp_path, base_config(
        profile={"red_seeds": [3], "blue_seeds": [0]},
        oracle="mc", n_trials=150, master_seed=4))
    csvs = []
    for sub, threads in (("one", None), ("two", "2")):
        out = tmp_path / sub
        argv = ["payoff", "--config", config, "--out", str(out)]
        if threads:
            argv += ["--threads", threads]
        assert run(argv) == 0
        csvs.append((out / "result.csv").read_bytes())
    assert csvs[0] == csvs[1]
    assert read_result(tmp_path / "one")["result"]["method"] == "monte-carlo"


def test_payoff_on_a_layered_gadget_uses_its_exact_dp(tmp_path):
    # 10,451 vertices and ~2M edges: enumeration on the materialised graph
    # does not finish, the gadget's layered DP answers at once.
    gadget = {"kind": "polarization_amplifier", "stages": 2, "middle_size": 200,
              "big_final_size": 10000, "selection_exponent": 2.0}
    config = write_config(tmp_path, {"graph": {"gadget": gadget},
                                     "profile": {"red_seeds": [0, 1, 2], "blue_seeds": [10204]}})
    out = tmp_path / "out"
    assert run(["payoff", "--config", config, "--out", str(out)]) == 0
    result = read_result(out)["result"]
    assert result["pi_R"] == pytest.approx(7653.0, abs=1e-6)
    assert result["pi_B"] == pytest.approx(247.0, abs=1e-6)
    assert result["method"] == "exact-layered-dp"
    assert "pruned_mass" not in result


def test_payoff_on_a_hub_gadget_uses_its_exact_dp(tmp_path):
    gadget = {"kind": "influencer_components", "sizes": [4, 8], "hubs_per_component": 2}
    config = write_config(tmp_path, {"graph": {"gadget": gadget},
                                     "profile": {"red_seeds": [4], "blue_seeds": [4]}})
    out = tmp_path / "out"
    assert run(["payoff", "--config", config, "--out", str(out)]) == 0
    result = read_result(out)["result"]
    # The contested hub is each color's with probability 1/2, and each of its
    # six followers sees one hub in two infected.
    assert (result["pi_R"], result["pi_B"]) == pytest.approx((2.0, 2.0), abs=1e-12)
    assert result["method"] == "exact-layered-dp"


@pytest.mark.parametrize("gadget", [True, False])
def test_payoff_validates_the_node_cap_whichever_back_end_answers(tmp_path, capsys, gadget):
    # A gadget config is answered by the gadget's own exact back end, which
    # reads no node cap; a bad one is still a bad config.
    profile = {"red_seeds": [4], "blue_seeds": [4]}
    config = ({"graph": {"gadget": {"kind": "influencer_components", "sizes": [4, 8],
                                    "hubs_per_component": 2}}, "profile": profile}
              if gadget else base_config(profile=profile))
    path = write_config(tmp_path, dict(config, node_cap=0))
    assert run(["payoff", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert "config field 'node_cap'" in capsys.readouterr().err


def test_gadget_parameters_are_not_coerced(tmp_path, capsys):
    config = write_config(tmp_path, {"graph": {"gadget": {
        "kind": "chain_replication", "chain_steps": 4, "replications": 17.9,
        "n_terminal": 10}}})
    assert run(["gadget", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert "gadget parameter replications must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("extra, method", [
    ({}, "exact-layered-dp"),
    ({"dynamics": {"f": {"kind": "threshold", "alpha": 0.5}, "g": {"kind": "tullock", "s": 1.0}}},
     "exact-enumeration"),
    ({"schedule": {"kind": "layer_order", "layers": [[4, 9, 10]]}}, "exact-enumeration"),
])
def test_payoff_on_a_gadget_enumerates_when_the_config_overrides_its_game(tmp_path, extra, method):
    gadget = {"kind": "threshold_two_layer", "layer1_size": 4, "final_small": 1,
              "final_large": 2, "threshold": 0.5}
    config = write_config(tmp_path, {"graph": {"gadget": gadget},
                                     "profile": {"red_seeds": [0], "blue_seeds": [1]}, **extra})
    out = tmp_path / "out"
    assert run(["payoff", "--config", config, "--out", str(out)]) == 0
    result = read_result(out)["result"]
    assert (result["pi_R"], result["pi_B"]) == pytest.approx((1.5, 1.5), abs=1e-12)
    assert result["method"] == method


# ---------------------------------------------------------------------------
# nash / poa / bm
# ---------------------------------------------------------------------------


def test_nash_lists_equilibria_with_extremity_flags(tmp_path):
    config = write_config(tmp_path, base_config(budget_red=1, budget_blue=1))
    out = tmp_path / "out"
    assert run(["nash", "--config", config, "--out", str(out)]) == 0
    doc = read_result(out)
    assert len(doc["result"]["equilibria"]) == 1
    # Allocations are written as [vertex, count] pairs.
    assert doc["result"]["equilibria"][0]["red"] == [[3, 1]]
    assert doc["result"]["equilibria"][0]["blue"] == [[3, 1]]
    assert doc["result"]["n_red_strategies"] == 13
    rows = read_csv(out)
    assert rows[0] == ["profile", "pi_R", "pi_B", "joint", "is_worst", "is_best"]
    assert rows[1] == ["red=3:1 blue=3:1", "5.0", "5.0", "10.0", "True", "True"]


def test_monte_carlo_nash_is_thread_invariant(tmp_path):
    config = write_config(tmp_path, base_config(budget_red=1, budget_blue=1, oracle="mc",
                                                n_trials=20, master_seed=3))
    docs = []
    for sub, threads in (("one", []), ("two", ["--threads", "2"])):
        out = tmp_path / sub
        assert run(["nash", "--config", config, "--out", str(out)] + threads) == 0
        docs.append((out / "result.json").read_bytes())
    # The threaded run's file differs only by the threads field its config embeds.
    threaded = json.loads(docs[1])
    assert threaded["config"].pop("threads") == 2
    assert json.dumps(threaded, sort_keys=True, indent=2).encode() + b"\n" == docs[0]
    assert json.loads(docs[0])["result"]["equilibria"]


def test_poa_and_bm_single_row_summaries(tmp_path):
    config = write_config(tmp_path, base_config(budget_red=1, budget_blue=1))
    out_poa = tmp_path / "poa"
    assert run(["poa", "--config", config, "--out", str(out_poa)]) == 0
    doc = read_result(out_poa)
    assert doc["result"]["value"] == pytest.approx(1.3)
    assert doc["result"]["max_joint"] == 13.0
    optimum = doc["result"]["optimum"]
    assert (optimum["red"], optimum["blue"]) == ([[0, 1]], [[3, 1]])
    rows = read_csv(out_poa)
    assert rows[0][:4] == ["kind", "value", "n_equilibria", "worst_nash_joint"]
    assert len(rows) == 2

    out_bm = tmp_path / "bm"
    assert run(["bm", "--config", config, "--out", str(out_bm)]) == 0
    assert read_result(out_bm)["result"]["value"] == 1.0


def test_search_caps_exit_with_cap_status(tmp_path):
    config = write_config(tmp_path, base_config(
        budget_red=1, budget_blue=1, search={"pair_cap": 10}))
    assert run(["nash", "--config", config, "--out", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# gadget
# ---------------------------------------------------------------------------


def gadget_config(replications, **extra):
    config = {"graph": {"gadget": {"kind": "chain_replication", "chain_steps": 4,
                                   "replications": replications, "n_terminal": 1000}}}
    config.update(extra)
    return config


def test_gadget_verb_emits_all_artifacts(tmp_path):
    config = write_config(tmp_path, gadget_config(17))
    out = tmp_path / "out"
    assert run(["gadget", "--config", config, "--out", str(out)]) == 0
    graph_doc = json.loads((out / "graph.json").read_text())
    assert graph_doc["n"] == 5 + 17 * 1004
    assert len(graph_doc["edges"]) == 17 * 1008
    profile_doc = json.loads((out / "profile.json").read_text())
    assert profile_doc["kind"] == "chain_replication"
    assert profile_doc["profiles"]["designated"]["red_seeds"] == [[1, 1], [2, 1], [3, 1], [4, 1]]
    predictions_doc = json.loads((out / "predictions.json").read_text())
    assert predictions_doc["ok"] is True
    assert predictions_doc["measured"]["blue_final_chain_share"] == 2.0 ** -4
    rows = read_csv(out)
    assert rows[0][0] == "record"
    assert rows[-1][0] == "summary"
    deviations = read_result(out)["result"]["profiles"]["designated"]["report"]["deviations"]
    assert deviations and all(
        len(pair) == 2 and pair[1] >= 1 for d in deviations for pair in d["allocation"])
    assert (out / "result.json").stat().st_size < 10_000


@pytest.mark.parametrize("gadget", [
    {"kind": "chain_replication", "chain_steps": 3, "replications": 5, "n_terminal": 20},
    {"kind": "influencer_components", "sizes": [4, 8], "hubs_per_component": 2},
    # Hubs only: no edges.
    {"kind": "influencer_components", "sizes": [2], "hubs_per_component": 2},
    # The README's chain config and a small layered gadget, at the default edge cap.
    {"kind": "chain_replication", "chain_steps": 4, "replications": 17, "n_terminal": 1000},
    {"kind": "convexity_amplifier", "base_size": 4, "depth": 3, "switch_exponent": 2.0,
     "final_small": 64},
])
def test_gadget_graph_json_is_the_indented_serialized_graph(tmp_path, gadget):
    out = tmp_path / "out"
    run(["gadget", "--config", write_config(tmp_path, {"graph": {"gadget": gadget}}),
         "--out", str(out)])
    spec = build_gadget(gadget["kind"], {k: v for k, v in gadget.items() if k != "kind"})
    reference = json.dumps(json.loads(serialize_graph(spec.build_graph())),
                           sort_keys=True, indent=2) + "\n"
    assert (out / "graph.json").read_bytes() == reference.encode("utf-8")


def test_gadget_verb_reads_a_top_level_gadget_section(tmp_path):
    gadget = {"kind": "chain_replication", "chain_steps": 3, "replications": 5, "n_terminal": 20}
    nested, top = tmp_path / "nested", tmp_path / "top"
    # Five replications fail verification (exit 3) either way.
    assert run(["gadget", "--config", write_config(tmp_path, {"graph": {"gadget": gadget}}),
                "--out", str(nested)]) == 3
    assert run(["gadget", "--config", write_config(tmp_path, {"gadget": gadget}, "top.json"),
                "--out", str(top)]) == 3
    assert read_result(top)["result"] == read_result(nested)["result"]
    for name in ("graph.json", "profile.json", "predictions.json"):
        assert (top / name).read_bytes() == (nested / name).read_bytes()


@pytest.mark.parametrize("verb, config, field", [
    ("gadget", {}, "gadget"),
    ("gadget", {"gadget": {"chain_steps": 3}}, "gadget"),
    ("gadget", {"graph": {"gadget": ["chain_replication"]}}, "gadget"),
    ("payoff", {"graph": {"gadget": {"chain_steps": 3}}}, "graph.gadget"),
])
def test_gadget_sections_without_a_kind_are_refused(tmp_path, capsys, verb, config, field):
    assert run([verb, "--config", write_config(tmp_path, config),
                "--out", str(tmp_path / "out")]) == 1
    assert f"config field '{field}': must be an object with a 'kind' field" in \
        capsys.readouterr().err


@pytest.mark.parametrize("graph", [Graph(n=4, edges=((1, 0), (2, 3), (3, 1)), directed=False),
                                   Graph(n=3, edges=(), directed=False)])
def test_undirected_graph_json_is_the_indented_serialized_graph(graph):
    # Every gadget is directed, so the undirected layout is checked on the
    # writer itself.
    reference = json.dumps(json.loads(serialize_graph(graph)), sort_keys=True, indent=2) + "\n"
    assert _graph_text(graph) == reference


def test_gadget_verb_fails_verification_at_low_replication(tmp_path):
    config = write_config(tmp_path, gadget_config(16))
    out = tmp_path / "out"
    assert run(["gadget", "--config", config, "--out", str(out)]) == 3
    predictions_doc = json.loads((out / "predictions.json").read_text())
    assert predictions_doc["ok"] is False
    assert predictions_doc["flags"]


def test_gadget_verb_skips_materializing_oversized_graphs(tmp_path):
    config = write_config(tmp_path, gadget_config(17, max_graph_edges=50))
    out = tmp_path / "out"
    assert run(["gadget", "--config", config, "--out", str(out)]) == 0
    graph_doc = json.loads((out / "graph.json").read_text())
    assert graph_doc["materialized"] is False
    assert "max_graph_edges=50" in graph_doc["reason"]
    assert "edges" not in graph_doc


def test_gadget_verb_on_a_hundred_million_vertices_writes_a_small_report(tmp_path):
    config = write_config(tmp_path, {"graph": {"gadget": {
        "kind": "threshold_two_layer", "layer1_size": 20, "final_small": 10,
        "final_large": 10**8, "threshold": 0.5}}})
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run(["gadget", "--config", config, "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (out / "result.json").stat().st_size < 100_000
    assert peak < 50 << 20


def test_gadget_verb_exits_with_cap_status_at_the_dp_cell_cap(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, {"graph": {"gadget": {
        "kind": "convexity_amplifier", "base_size": 4, "depth": 3,
        "switch_exponent": 2.0, "final_small": 6}}})
    monkeypatch.setattr(layered, "MAX_DP_CELLS", 10)
    assert run(["gadget", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "layered DP" in capsys.readouterr().err


def test_gadget_verb_rejects_convexity_depths_beyond_float_range(tmp_path, capsys):
    config = write_config(tmp_path, {"graph": {"gadget": {
        "kind": "convexity_amplifier", "base_size": 4, "depth": 12,
        "switch_exponent": 2.0, "final_small": 2}}})
    assert run(["gadget", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert "beyond float range" in capsys.readouterr().err


def modules_loaded_by(code, packages):
    """The modules in `packages` (or under them) that a fresh interpreter
    has loaded after running `code`."""
    src = os.path.dirname(os.path.dirname(contagion_games.__file__))
    code += (f"\nprint(sorted(m for m in sys.modules "
             f"if any(m == p or m.startswith(p + '.') for p in {packages!r})))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_importing_the_package_loads_no_scipy():
    """Nor the process pool, which only `threads > 1` runs start."""
    packages = ("scipy", "multiprocessing", "socket", "concurrent.futures.process")
    assert modules_loaded_by("import contagion_games, contagion_games.cli", packages) == "[]"


def test_couple_test_loads_no_scipy(tmp_path):
    """Every mode, from the library and from the CLI verb on the README hub
    config, computes its p-values without scipy."""
    config = write_config(tmp_path, base_config(profile={"red_seeds": [3], "blue_seeds": [0]}))
    code = "\n".join([
        "from contagion_games import (Graph, SinglePassOrder, SwitchSelectAdoption,",
        "                             PowerSwitch, linear_selection, couple_test)",
        "from contagion_games.cli import run",
        "g = Graph(13, tuple([(0, 1), (0, 2)] + [(3, v) for v in range(4, 13)]))",
        "order = SinglePassOrder(tuple(v for v in range(13) if v not in (0, 3)))",
        "dyn = SwitchSelectAdoption(PowerSwitch(1.0), linear_selection())",
        "for mode in ('solo-vs-joint', 'joint-total', 'attribution'):",
        "    assert couple_test(g, [3], [0], dyn, order, mode, runs=100).invariant_violations == 0",
        f"    assert run(['couple-test', '--config', {config!r}, '--couple.mode', mode,",
        f"                '--out', {str(tmp_path / 'out')!r}]) == 0",
    ])
    assert modules_loaded_by(code, ("scipy",)) == "[]"


def test_other_verbs_accept_gadget_graph_sources(tmp_path):
    config = write_config(tmp_path, {
        "graph": {"gadget": {"kind": "influencer_components",
                             "sizes": [4, 8], "hubs_per_component": 2}}})
    out = tmp_path / "out"
    assert run(["poa", "--config", config, "--out", str(out)]) == 0
    doc = read_result(out)
    assert doc["result"]["n_equilibria"] >= 1


# ---------------------------------------------------------------------------
# couple-test
# ---------------------------------------------------------------------------


def test_couple_test_verb_accepts_mode_aliases(tmp_path):
    config = write_config(tmp_path, base_config(
        dynamics={"f": {"kind": "power", "r": 0.5}, "g": {"kind": "tullock", "s": 1.0}},
        profile={"red_seeds": [3], "blue_seeds": [0]},
        couple={"mode": "lemma1", "runs": 200}))
    out = tmp_path / "out"
    assert run(["couple-test", "--config", config, "--out", str(out)]) == 0
    doc = read_result(out)
    assert doc["result"]["mode"] == "solo-vs-joint"
    assert doc["result"]["invariant_violations"] == 0
    rows = read_csv(out)
    assert ["mode", "solo-vs-joint"] in rows


def test_couple_test_verb_rejects_unknown_modes(tmp_path, capsys):
    config = write_config(tmp_path, base_config(
        profile={"red_seeds": [3], "blue_seeds": [0]},
        couple={"mode": "lemma9"}))
    assert run(["couple-test", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert "config field 'couple.mode'" in capsys.readouterr().err


@pytest.mark.parametrize("mixed_side", ["red", "blue"])
def test_couple_test_verb_rejects_mixed_profiles(tmp_path, capsys, mixed_side):
    def counts(v):
        return [1 if u == v else 0 for u in range(13)]

    sides = {"red": {"counts": counts(3)}, "blue": {"counts": counts(0)}}
    sides[mixed_side] = [{"p": 0.5, "counts": counts(3)}, {"p": 0.5, "counts": counts(0)}]
    config = write_config(tmp_path, base_config(
        dynamics={"f": {"kind": "power", "r": 0.5}, "g": {"kind": "tullock", "s": 1.0}},
        profile=sides, couple={"mode": "solo-vs-joint", "runs": 20}))
    assert run(["couple-test", "--config", config, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config field 'profile'" in err and "pure profile" in err


# ---------------------------------------------------------------------------
# Config plumbing and validation failures.
# ---------------------------------------------------------------------------


def test_dotted_overrides_reach_nested_fields(tmp_path):
    config = write_config(tmp_path, base_config(
        profile={"red_seeds": [3], "blue_seeds": [0]}))
    out = tmp_path / "out"
    assert run(["payoff", "--config", config, "--out", str(out),
                "--schedule.kind", "parallel", "--schedule.max_rounds=2",
                "--profile.blue_seeds", "[1]"]) == 0
    doc = read_result(out)
    assert doc["config"]["schedule"]["kind"] == "parallel"
    assert doc["config"]["schedule"]["max_rounds"] == 2
    assert doc["config"]["profile"]["blue_seeds"] == [1]


@pytest.mark.parametrize("config_mutation,field", [
    (lambda c: c.pop("graph"), "graph"),
    (lambda c: c.pop("dynamics"), "dynamics"),
    (lambda c: c.pop("schedule"), "schedule"),
    (lambda c: c.update(oracle="psychic"), "oracle"),
    (lambda c: c.update(oracle={"method": "exact"}), "oracle"),
])
def test_missing_or_bad_fields_exit_with_validation_status(
        tmp_path, capsys, config_mutation, field):
    config = base_config(profile={"red_seeds": [3], "blue_seeds": [0]})
    config_mutation(config)
    path = write_config(tmp_path, config)
    assert run(["payoff", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("update,message", [
    ({"profile": {"red_seeds": [True], "blue_seeds": [0]}}, "config field 'profile.red_seeds'"),
    ({"profile": {"red": {"counts": [True] + [False] * 12},
                  "blue": {"counts": [0] * 12 + [1]}}},
     "config field 'profile': allocation count at vertex 0"),
    ({"profile": {"red_seeds": [3], "blue_seeds": [0]},
      "schedule": {"kind": "single_pass", "order": [True, 2]}},
     "single-pass order contains a non-vertex entry True"),
    ({"profile": {"red_seeds": [3], "blue_seeds": [0]},
      "graph": dict(micro_graph(), edges=[[True, 2]] + micro_graph()["edges"][1:])},
     "edge (True, 2) has non-integer endpoints"),
    ({"profile": {"red_seeds": [3], "blue_seeds": [0]}, "graph": dict(micro_graph(), n=True)},
     "vertex count must be a positive integer, got True"),
])
def test_boolean_vertex_ids_and_counts_are_rejected(tmp_path, capsys, update, message):
    config = base_config()
    config.update(update)
    path = write_config(tmp_path, config)
    assert run(["payoff", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


def test_simulate_refuses_a_boolean_edge_endpoint(tmp_path, capsys):
    """`[true, 2]` is not the edge (1, 2)."""
    graph = dict(micro_graph(), edges=[[True, 2]] + micro_graph()["edges"][1:])
    config = write_config(tmp_path, base_config(
        graph=graph, profile={"red_seeds": [3], "blue_seeds": [0]}, n_trials=10))
    assert run(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert "non-integer endpoints" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,message", [
    (["--schedule.immunity", "False"], "immunity must be a boolean, got 'False'"),
    (["--schedule.immunity", '"false"'], "immunity must be a boolean, got 'false'"),
    (["--schedule.max_rounds", "2.5"], "max_rounds must be a positive integer, got 2.5"),
    (["--schedule.max_rounds", "true"], "max_rounds must be a positive integer, got True"),
    (["--schedule.kind", "random_sequential", "--schedule.max_steps", "2.9"],
     "max_steps must be a positive integer, got 2.9"),
])
def test_schedule_fields_are_not_coerced(tmp_path, capsys, overrides, message):
    config = write_config(tmp_path, base_config(
        profile={"red_seeds": [3], "blue_seeds": [0]},
        schedule={"kind": "parallel", "max_rounds": 2, "immunity": True}))
    assert run(["payoff", "--config", config, "--out", str(tmp_path / "out")] + overrides) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("verb, config, field, value", [
    ("gadget", gadget_config(17, eps=True), "eps", True),
    ("nash", base_config(budget_red=1, budget_blue=1, search={"eps": True}), "search.eps",
     True),
    ("poa", base_config(budget_red=1, budget_blue=1, search={"eps": False}), "search.eps",
     False),
    # eps is also finite and >= 0.
    ("gadget", gadget_config(17, eps=-0.5), "eps", -0.5),
    ("nash", base_config(budget_red=1, budget_blue=1, search={"eps": -1}), "search.eps", -1),
    ("nash", base_config(budget_red=1, budget_blue=1, search={"eps": float("nan")}),
     "search.eps", float("nan")),
    ("bm", base_config(budget_red=1, budget_blue=1, search={"eps": float("inf")}),
     "search.eps", float("inf")),
])
def test_a_boolean_eps_is_refused(tmp_path, capsys, verb, config, field, value):
    """JSON `true` in a numeric field is a config error, not eps 1."""
    assert run([verb, "--config", write_config(tmp_path, config),
                "--out", str(tmp_path / "out")]) == 1
    assert f"config field '{field}': must be a number, got {value!r}" in \
        capsys.readouterr().err


def with_switching(f):
    return base_config(profile={"red_seeds": [3], "blue_seeds": [0]},
                       dynamics={"f": f, "g": {"kind": "tullock", "s": 1.0}})


def with_mixed_red(p):
    seed = lambda v: [int(u == v) for u in range(13)]
    return base_config(profile={"red": [{"p": p, "counts": seed(3)}, {"p": 0.5, "counts": seed(4)}],
                                "blue": {"counts": seed(0)}})


@pytest.mark.parametrize("verb, config, message", [
    *(("payoff", with_switching({"kind": "power", "r": r}),
       f"'f' field 'r' must be a real number, got {r!r}") for r in ("abc", [1], True)),
    ("payoff", with_switching({"kind": "threshold", "alpha": "0.5"}),
     "'f' field 'alpha' must be a real number, got '0.5'"),
    ("payoff", with_switching({"kind": ["x"]}), "unknown switching-function kind ['x']"),
    *(("payoff", with_mixed_red(p),
       f"mixed-allocation probability must be a real number, got {p!r}")
      for p in ("abc", [1], None, True)),
    ("gadget", {"graph": {"gadget": {"kind": "chain_replication", "chain_steps": 1024,
                                     "replications": 2, "n_terminal": 1}}},
     "chain_steps 1024 puts 2**chain_steps"),
])
def test_malformed_numbers_exit_with_a_validation_error(tmp_path, capsys, verb, config, message):
    assert run([verb, "--config", write_config(tmp_path, config),
                "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and message in err


def test_a_polarization_gadget_with_an_underflowing_minority_share_verifies(tmp_path):
    config = write_config(tmp_path, {"graph": {"gadget": {
        "kind": "polarization_amplifier", "stages": 3, "middle_size": 10,
        "big_final_size": 100, "selection_exponent": 10.0}}})
    # Its BM prediction is not met, so the verb exits 3 with the report written.
    assert run(["gadget", "--config", config, "--out", str(tmp_path / "out")]) == 3
    assert read_result(tmp_path / "out")["result"]["params"]["small_final_closed_form"] == 0


def test_a_graph_path_gives_the_inline_graph_result(tmp_path):
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(serialize_graph(Graph(n=13, edges=tuple(map(tuple,
                                                                      micro_graph()["edges"])))))
    profile = {"red_seeds": [3], "blue_seeds": [0]}
    results = []
    for name, graph in (("inline", micro_graph()), ("path", {"path": str(graph_file)})):
        out = tmp_path / name
        assert run(["payoff", "--config", write_config(tmp_path, base_config(
            graph=graph, profile=profile)), "--out", str(out)]) == 0
        results.append((read_result(out)["result"], (out / "result.csv").read_bytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("verb, text, flags, field", [
    ("payoff", "{not json", [], "--config"),
    ("payoff", "[1, 2]", [], "--config"),
    ("payoff", None, ["--n_trials"], "n_trials"),
    ("payoff", None, ["--master_seed.bits", "3"], "master_seed.bits"),
    ("payoff", json.dumps(base_config(profile={"red_seeds": [3], "blue_seeds": [0]}, out=5)),
     [], "out"),
    ("nash", json.dumps(base_config(budget_red=1, budget_blue=1, search=[1])), [], "search"),
    ("couple-test", json.dumps(base_config(profile={"red_seeds": [3], "blue_seeds": [0]},
                                           couple="solo-vs-joint")), [], "couple"),
    ("payoff", json.dumps(base_config(graph={"path": 7})), [], "graph.path"),
])
def test_malformed_configs_exit_1_and_name_their_field(tmp_path, capsys, monkeypatch, verb, text,
                                                       flags, field):
    """Unreadable configs, malformed override flags and sections of the wrong
    type are validation errors that name the config field."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(text if text is not None else json.dumps(base_config(
        profile={"red_seeds": [3], "blue_seeds": [0]}, master_seed=0)))
    assert run([verb, "--config", str(path)] + flags) == 1
    assert f"config field '{field}'" in capsys.readouterr().err


def test_an_override_flag_with_an_empty_key_names_itself():
    # argparse refuses `--=5` as an ambiguous option before the override
    # parser sees it, so the parser is called directly.
    with pytest.raises(ValidationError, match="config field '--=5': override flag has an empty key"):
        _parse_override_tokens(["--=5"])


def test_profile_and_search_are_mutually_exclusive(tmp_path, capsys):
    config = write_config(tmp_path, base_config(
        profile={"red_seeds": [3], "blue_seeds": [0]}, search={"eps": 0.1}))
    assert run(["payoff", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert "config field 'profile/search'" in capsys.readouterr().err


def test_stray_positional_tokens_are_rejected(tmp_path, capsys):
    config = write_config(tmp_path, base_config(
        profile={"red_seeds": [3], "blue_seeds": [0]}))
    assert run(["payoff", "--config", config, "stray"]) == 1
    assert "expected a --dotted.key override flag" in capsys.readouterr().err


def test_missing_config_file_is_reported(tmp_path, capsys):
    assert run(["payoff", "--config", str(tmp_path / "nope.json")]) == 1
    assert "does not exist" in capsys.readouterr().err
