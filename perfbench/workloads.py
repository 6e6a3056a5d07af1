"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, splits its timed
work into parts that the harness runs round-robin, checks the library's
answers, and runs the layer probes of the traced run.  README.md in this
directory says why each workload exists and which layer each metric watches.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import shutil
import statistics
import time

import numpy as np

from contagion_games import (
    MONTE_CARLO,
    Allocation,
    GameSpec,
    Graph,
    LayeredStructure,
    ParallelRounds,
    PayoffOracle,
    PowerSwitch,
    SinglePassOrder,
    StrategyProfile,
    SwitchSelectAdoption,
    TullockSelection,
    budget_multiplier,
    build_gadget,
    chain_replication,
    convexity_amplifier,
    couple_test,
    estimate_payoffs,
    exact_payoffs,
    filter_phase_candidates,
    find_pure_nash,
    influencer_components,
    layered_estimate_payoffs,
    layered_exact_payoffs,
    linear_selection,
    load_dynamics,
    load_graph,
    load_schedule,
    polarization_amplifier,
    price_of_anarchy,
    resolve_contested_seeds,
    run_contagion,
    serialize_graph,
    threshold_two_layer,
    verify_gadget,
)
from contagion_games.cli import run as cli_run

from tracing import (CountingOracle, counting_adoption, counting_payoff_fn, counting_schedule,
                     oracle)

# Expected values the checks compare against, from the acceptance criteria.
HUB_POA = 1.0                           # criterion 1, linear dynamics
CONVEX_POA_PINNED = 4.109176825063753   # criterion 10, rel 1e-9
THRESHOLD_PINNED = {"designated_joint": 20.0, "best_joint_joint": 1010.0,
                    "poa_vs_designated": 50.5}  # criterion 6
CHAIN_BLUE_SHARE = 2.0 ** -4            # criterion 9 at chain_steps=4
POA_BOUND = 4.0 + 1e-9                  # criterion 3
BM_BOUND = 2.0 + 1e-9                   # criterion 4
SIGMAS = 4.0

# The README's example configs, verbatim.
README_HUB = {
    "graph": {"n": 13, "directed": True,
              "edges": [[0, 1], [0, 2], [3, 4], [3, 5], [3, 6], [3, 7],
                        [3, 8], [3, 9], [3, 10], [3, 11], [3, 12]]},
    "dynamics": {"f": {"kind": "power", "r": 1.0}, "g": {"kind": "tullock", "s": 1.0}},
    "schedule": {"kind": "single_pass", "order": [1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12]},
    "profile": {"red_seeds": [3], "blue_seeds": [0]},
    "n_trials": 10000,
    "master_seed": 7,
}
README_CHAIN_GADGET = {"kind": "chain_replication", "chain_steps": 4,
                       "replications": 17, "n_terminal": 1000}


def sqrt_linear():
    return SwitchSelectAdoption(PowerSwitch(0.5), linear_selection())


def traced_game(game: GameSpec, tracer, schedule: bool = False) -> GameSpec:
    """When tracing, the same game with counting dynamics and, for Monte Carlo
    only (exact enumeration dispatches on the schedule's class), a counting
    schedule; else the game itself."""
    if not tracer.enabled:
        return game
    return GameSpec(game.graph, counting_adoption(game.dynamics, tracer),
                    counting_schedule(game.schedule, tracer) if schedule else game.schedule,
                    game.budget_red, game.budget_blue)


def traced_gadget(spec, tracer):
    if not tracer.enabled:
        return spec
    return dataclasses.replace(spec, dynamics=counting_adoption(spec.dynamics, tracer))


def verify(spec, tracer):
    """verify_gadget, with the counting payoff back end when traced."""
    with tracer.span("gadgets.verify"):
        return verify_gadget(spec, payoff_fn=counting_payoff_fn(spec, tracer))


def designated(spec) -> StrategyProfile:
    case = spec.profiles["designated"]
    return StrategyProfile(case.red, case.blue)


def readme_hub_game() -> tuple[GameSpec, StrategyProfile]:
    graph = load_graph(README_HUB["graph"])
    game = GameSpec(graph, load_dynamics(README_HUB["dynamics"]),
                    load_schedule(README_HUB["schedule"]), 1, 1)
    profile = StrategyProfile(Allocation.from_seeds(graph.n, README_HUB["profile"]["red_seeds"]),
                              Allocation.from_seeds(graph.n, README_HUB["profile"]["blue_seeds"]))
    return game, profile


def allocation_probe(tracer, n: int) -> None:
    """The dense work every new allocation costs at n vertices."""
    with tracer.span("engine.allocation"):
        a = Allocation.from_seeds(n, [0])
        b = a.move_seed(0, n - 1)
        b.seeded_vertices()


def contagion_probe(tracer, game: GameSpec, profile: StrategyProfile, seed: int,
                    runs: int) -> None:
    """Single contagion runs, then each phase's candidate scan replayed on the
    states the last run passed through."""
    dyn = counting_adoption(game.dynamics, tracer)
    for i in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        initial = resolve_contested_seeds(profile.red, profile.blue, rng)
        with tracer.span("dynamics.run_contagion"):
            out = run_contagion(game.graph, initial, dyn, game.schedule, rng,
                                keep_trace=i == runs - 1)
    state = list(initial)
    immune = [False] * game.graph.n
    cursor = game.schedule.initial_cursor()
    for record in out.trace:
        with tracer.span("dynamics.phase_scan"):
            _, phase, cursor = game.schedule.phase_options(game.graph, state, immune, cursor)[0]
            filter_phase_candidates(game.graph, state, immune, phase)
        for v, color in record.updates:
            state[v] = color


def within_sigmas(ledger, name: str, est, ref_r: float, ref_b: float) -> None:
    """est agrees with (ref_r, ref_b) within SIGMAS of est's standard errors."""
    ok = (abs(est.pi_R - ref_r) <= SIGMAS * est.stderr_R
          and abs(est.pi_B - ref_b) <= SIGMAS * est.stderr_B)
    ledger.check(name, ok, f"estimate ({est.pi_R:.6g}, {est.pi_B:.6g}) +- "
                           f"({est.stderr_R:.3g}, {est.stderr_B:.3g}) vs "
                           f"reference ({ref_r:.6g}, {ref_b:.6g})")


class Workload:
    """Inputs, timed parts, checks and probes of one workload.

    Every workload's last part runs CLI verbs; a verb run twice with the same
    seed must write the same result.json.
    """

    name = ""

    def __init__(self, seed: int, tiny: bool, out_dir: str, ledger):
        self.seed = seed
        self.tiny = tiny
        self.out_dir = out_dir
        self.ledger = ledger
        self._cli_results: dict[str, bytes] = {}

    # -- to implement ----------------------------------------------------

    def setup(self, tracer) -> None:
        """Build every input of the timed parts."""
        raise NotImplementedError

    def parts(self, tracer) -> list:
        """(name, callable) pairs; each callable returns a dict of results."""
        raise NotImplementedError

    def mc_trials_per_s(self, samples) -> float:
        raise NotImplementedError

    def part_metrics(self, samples) -> dict:
        """Per-layer figures read from the untraced parts."""
        return {}

    def checks(self, samples) -> None:
        raise NotImplementedError

    def cli_runs(self) -> dict:
        """key -> (verb, argv) for the CLI part."""
        raise NotImplementedError

    def direct_cli_work(self) -> None:
        """The CLI part's work done through library calls instead."""
        raise NotImplementedError

    def probes(self, tracer) -> None:
        raise NotImplementedError

    # -- shared ----------------------------------------------------------

    def write_config(self, name: str, doc: dict) -> str:
        path = os.path.join(self.out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def cli_part(self, tracer) -> dict:
        for key, (verb, argv) in self.cli_runs().items():
            out = os.path.join(self.out_dir, "cli", key)
            shutil.rmtree(out, ignore_errors=True)
            with tracer.span(f"cli.{verb}"):
                code = cli_run([verb] + argv + ["--out", out])
            self.ledger.check(f"cli {key} exits 0", code == 0, f"exit code {code}")
            with open(os.path.join(out, "result.json"), "rb") as fh:
                data = fh.read()
            if key in self._cli_results:
                self.ledger.check(f"cli {key} writes the same result.json for the same seed",
                                  data == self._cli_results[key])
            self._cli_results[key] = data
        return {}

    def end_to_end(self, samples) -> dict:
        return {"mc_trials_per_s": self.mc_trials_per_s(samples),
                "cli_s": samples.median("cli")}


# ---------------------------------------------------------------------------
# mc_spread: per-vertex simulation.
# ---------------------------------------------------------------------------


def random_digraph_edges(seed: int, n: int, m: int) -> tuple[tuple[int, int], ...]:
    """m distinct directed edges without self-loops, drawn from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    seen: set = set()
    edges: list = []
    while len(edges) < m:
        for u, v in zip(rng.integers(0, n, size=m).tolist(), rng.integers(0, n, size=m).tolist()):
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                edges.append((u, v))
                if len(edges) == m:
                    break
    return tuple(edges)


def bipartite_game(dyn) -> GameSpec:
    """Criterion 5's instance: 3 sources feeding 9 sinks, one pass over the sinks."""
    graph = Graph(n=12, edges=tuple((s, t) for s in range(3) for t in range(3, 12)))
    return GameSpec(graph, dyn, SinglePassOrder(tuple(range(3, 12))), 1, 1)


class McSpread(Workload):
    name = "mc_spread"

    def setup(self, tracer):
        n, m = (200, 800) if self.tiny else (2000, 8000)
        # Parts of 0.05-0.1 s give each part some 40 calls in a 16 s run,
        # enough for steady medians on a noisy host.  The two Monte Carlo
        # parts, the workload's subject, get the larger share of a pass.
        self.trials_a = 1 if self.tiny else 4
        self.trials_b = 10 if self.tiny else 60
        self.couple_runs = 20 if self.tiny else 60
        self.cli_trials = 50 if self.tiny else 100
        self.cli_couple_runs = 20 if self.tiny else 60
        edges = random_digraph_edges(self.seed, n, m)
        with tracer.span("graphs.build"):
            graph = Graph(n=n, edges=edges, directed=True)
        # The four best-connected vertices seed the spread, so that spreads
        # are of similar size whatever the seed.
        by_degree = sorted(range(n), key=lambda v: (-len(graph.out_neighbors[v]), v))
        with tracer.span("dynamics.schedule_build"):
            schedule = ParallelRounds(20)
        with tracer.span("dynamics.adoption_build"):
            dyn = sqrt_linear()
        with tracer.span("engine.allocation"):
            self.profile_a = StrategyProfile(Allocation.from_seeds(n, by_degree[:2]),
                                             Allocation.from_seeds(n, by_degree[2:4]))
        self.game_a = GameSpec(graph, dyn, schedule, 2, 2)
        with tracer.span("gadgets.build"):
            hub = influencer_components((50, 200), 2)
        self.hub_game, self.hub_profile = hub.game(), designated(hub)
        with tracer.span("graphs.build"):
            self.bip = bipartite_game(dyn)
        self.config = self.write_config("readme_hub", README_HUB)

    def parts(self, tracer):
        game_a = traced_game(self.game_a, tracer, schedule=True)
        hub_game = traced_game(self.hub_game, tracer, schedule=True)
        bip_dyn = counting_adoption(self.bip.dynamics, tracer)

        def mc(game, profile, trials):
            with tracer.span("engine.estimate_payoffs"):
                est = estimate_payoffs(game, profile, n_trials=trials, master_seed=self.seed)
            tracer.counters["engine.mc_trials"] += trials
            return {"trials": trials, "est": est}

        def coupled():
            out = {}
            for mode in ("solo-vs-joint", "joint-total"):
                with tracer.span(f"coupling.couple_test.{mode}"):
                    out[mode] = couple_test(self.bip.graph, [0], [1], bip_dyn, self.bip.schedule,
                                            mode, runs=self.couple_runs, master_seed=self.seed)
            return {"runs": 2 * self.couple_runs, "results": out}

        return [("spread", lambda: mc(game_a, self.profile_a, self.trials_a)),
                ("hub", lambda: mc(hub_game, self.hub_profile, self.trials_b)),
                ("coupled", coupled),
                ("cli", lambda: self.cli_part(tracer))]

    def cli_runs(self):
        common = ["--config", self.config, "--seed", str(self.seed)]
        return {"simulate": ("simulate", common + ["--trials", str(self.cli_trials)]),
                "couple-test": ("couple-test", common + [
                    "--couple.mode", "solo-vs-joint", "--couple.runs", str(self.cli_couple_runs)])}

    def direct_cli_work(self):
        game, profile = readme_hub_game()
        estimate_payoffs(game, profile, n_trials=self.cli_trials, master_seed=self.seed)
        couple_test(game.graph, [3], [0], game.dynamics, game.schedule, "solo-vs-joint",
                    runs=self.cli_couple_runs, master_seed=self.seed)

    def mc_trials_per_s(self, samples):
        return samples.median_rate("spread", "trials")

    def part_metrics(self, samples):
        return {"engine.hub_trials_per_s": samples.median_rate("hub", "trials"),
                "coupling.coupled_runs_per_s": samples.median_rate("coupled", "runs")}

    def checks(self, samples):
        exact = exact_payoffs(self.hub_game, self.hub_profile)
        for k, result in enumerate(samples.results["hub"]):
            within_sigmas(self.ledger, f"hub Monte Carlo #{k} within {SIGMAS:g} sigma of exact",
                          result["est"], exact.pi_R, exact.pi_B)
        for result in samples.results["coupled"]:
            for mode, res in result["results"].items():
                self.ledger.check(f"couple_test {mode} has no invariant violations",
                                  res.invariant_violations == 0,
                                  f"{res.invariant_violations} violations")
                self.ledger.check(f"couple_test {mode} margins are non-negative",
                                  all(v >= 0.0 for v in res.inequality_margins.values()),
                                  str(res.inequality_margins))
        # Outside the timed phase: threads=2 starts worker processes.
        trials = max(64, self.trials_b // 4)
        one = estimate_payoffs(self.hub_game, self.hub_profile, n_trials=trials,
                               master_seed=self.seed)
        two = estimate_payoffs(self.hub_game, self.hub_profile, n_trials=trials,
                               master_seed=self.seed, threads=2)
        self.ledger.check("estimate_payoffs is bit-identical with threads unset and threads=2",
                          one == two, f"{one} vs {two}")

    def probes(self, tracer):
        allocation_probe(tracer, self.game_a.graph.n)
        with tracer.span("dynamics.schedule_build"):
            ParallelRounds(20)
            SinglePassOrder(self.hub_game.schedule.order)
        contagion_probe(tracer, self.game_a, self.profile_a, self.seed, runs=2 if self.tiny else 4)


# ---------------------------------------------------------------------------
# nash_sweep: exact enumeration under equilibrium search.
# ---------------------------------------------------------------------------


def random_game_draw(i: int, entropy: int) -> dict:
    """Criterion 3's random instance #i, as drawn parameters: 3-8 vertices,
    power switching, Tullock selection, a mixed schedule pool, occasional
    budget-2 players.  Odd instances take criterion 4's selection exponent
    s = 1 instead of s drawn from [r, 1]."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(i,)))
    n = int(rng.integers(3, 9))
    p = 0.5 if n <= 5 else 0.3
    edges = tuple((u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p)

    def budget():
        return 2 if (n <= 6 and rng.random() < 0.15) else 1

    budgets = (budget(), budget())
    r = float(rng.choice((0.5, 1.0)))
    s = float(rng.uniform(r, 1.0)) if i % 2 == 0 else 1.0
    order = None if rng.random() < 0.5 else tuple(int(v) for v in rng.permutation(n))
    return {"n": n, "edges": edges, "budgets": budgets, "r": r, "s": s, "order": order}


class NashSweep(Workload):
    name = "nash_sweep"

    def setup(self, tracer):
        # Parts of at most 0.3 s: the sweep runs in chunks of ten games.
        self.n_games = 8 if self.tiny else 100
        self.chunk = 4 if self.tiny else 10
        self.mc_trials = 20 if self.tiny else 25
        self.cli_mc_trials = 10 if self.tiny else 20
        drawn = [random_game_draw(i, self.seed) for i in range(self.n_games)]
        with tracer.span("graphs.build"):
            graphs = [Graph(n=d["n"], edges=d["edges"], directed=True) for d in drawn]
        with tracer.span("dynamics.adoption_build"):
            dyns = [SwitchSelectAdoption(PowerSwitch(d["r"]), TullockSelection(d["s"]))
                    for d in drawn]
        with tracer.span("dynamics.schedule_build"):
            schedules = [ParallelRounds(3 if d["n"] <= 5 else 2) if d["order"] is None
                         else SinglePassOrder(d["order"]) for d in drawn]
        self.games = [GameSpec(g, dyn, sched, *d["budgets"])
                      for g, dyn, sched, d in zip(graphs, dyns, schedules, drawn)]
        self.exponents = [d["s"] for d in drawn]
        with tracer.span("gadgets.build"):
            hub = influencer_components((5, 8) if self.tiny else (10, 40), 2)
        self.hub_game = hub.game()
        self.hub_largest = float(max(hub.params["sizes"]))
        with tracer.span("dynamics.adoption_build"):
            dyn = sqrt_linear()
        with tracer.span("graphs.build"):
            self.bip = bipartite_game(dyn)
        config = {k: v for k, v in README_HUB.items() if k != "profile"}
        self.config = self.write_config("readme_hub_game",
                                        dict(config, budget_red=1, budget_blue=1))

    def parts(self, tracer):
        games = [traced_game(g, tracer) for g in self.games]
        hub_game = traced_game(self.hub_game, tracer)
        bip = traced_game(self.bip, tracer, schedule=True)

        def sweep(lo, hi):
            latencies, answers = [], []
            for i in range(lo, hi):
                t0 = time.perf_counter()
                o = oracle(games[i], tracer)
                with tracer.span("equilibrium.find_pure_nash"):
                    nash = find_pure_nash(games[i], o)
                with tracer.span("equilibrium.price_of_anarchy"):
                    poa = price_of_anarchy(games[i], o, nash=nash)
                with tracer.span("equilibrium.budget_multiplier"):
                    bm = budget_multiplier(games[i], o, nash=nash)
                latencies.append((i, time.perf_counter() - t0))
                answers.append((i, nash.found, poa.value, bm.value))
            return {"games": hi - lo, "latencies": latencies, "answers": answers}

        def hub_poa():
            with tracer.span("equilibrium.price_of_anarchy"):
                return {"poa": price_of_anarchy(hub_game, oracle(hub_game, tracer))}

        def mc_nash():
            # Counted untraced too: its misses are the Monte Carlo evaluations run.
            o = CountingOracle(bip, tracer, method=MONTE_CARLO, n_trials=self.mc_trials,
                               master_seed=self.seed)
            with tracer.span("equilibrium.find_pure_nash"):
                nash = find_pure_nash(bip, o)
            return {"nash": nash, "trials": o.misses * self.mc_trials}

        chunks = [(f"sweep{lo // self.chunk}", functools.partial(sweep, lo, min(lo + self.chunk,
                                                                            self.n_games)))
                  for lo in range(0, self.n_games, self.chunk)]
        # mc_nash and cli repeat short computations whose calls scatter widely
        # on a noisy host; several calls a pass give them steadier medians.
        mc = ("mc_nash", mc_nash)
        cli = ("cli", lambda: self.cli_part(tracer))
        return (chunks[:4] + [mc] + chunks[4:8] + [mc, cli] + chunks[8:]
                + [("hub_poa", hub_poa), mc, cli])

    def cli_runs(self):
        common = ["--config", self.config, "--seed", str(self.seed)]
        return {"poa": ("poa", common), "bm": ("bm", common),
                "nash-mc": ("nash", common + ["--oracle", "mc",
                                              "--trials", str(self.cli_mc_trials)])}

    def direct_cli_work(self):
        game, _ = readme_hub_game()
        price_of_anarchy(game)
        budget_multiplier(game)
        find_pure_nash(game, PayoffOracle(game, method=MONTE_CARLO, n_trials=self.cli_mc_trials,
                                          master_seed=self.seed))

    def mc_trials_per_s(self, samples):
        return samples.median_rate("mc_nash", "trials")

    def sweep_results(self, samples):
        return [r for name, results in samples.results.items() if name.startswith("sweep")
                for r in results]

    def part_metrics(self, samples):
        by_game: dict[int, list] = {}
        for name in samples.results:
            if name.startswith("sweep"):
                for result, scale in zip(samples.results[name], samples.scales[name]):
                    for i, seconds in result["latencies"]:
                        by_game.setdefault(i, []).append(seconds * scale)
        pooled = sorted(x for xs in by_game.values() for x in xs)
        # One sweep's time as the sum of each game's median latency.
        sweep_s = sum(statistics.median(xs) for xs in by_game.values())
        return {"equilibrium.games_per_s": self.n_games / sweep_s,
                "equilibrium.game_p50_ms": 1000.0 * _quantile(pooled, 0.50),
                "equilibrium.game_p95_ms": 1000.0 * _quantile(pooled, 0.95),
                "equilibrium.mc_oracle_nash_s": samples.median("mc_nash")}

    def checks(self, samples):
        for result in self.sweep_results(samples):
            for i, found, poa, bm in result["answers"]:
                if not found:
                    continue
                self.ledger.check(f"game {i}: price of anarchy <= 4", poa <= POA_BOUND, f"{poa}")
                if self.exponents[i] == 1.0:
                    self.ledger.check(f"game {i}: budget multiplier <= 2", bm <= BM_BOUND, f"{bm}")
        for result in samples.results["hub_poa"]:
            eff = result["poa"]
            self.ledger.check("hub price of anarchy matches criterion 1",
                              eff.value == HUB_POA and eff.worst_nash_joint == self.hub_largest
                              and eff.max_joint == self.hub_largest,
                              f"value={eff.value} worst={eff.worst_nash_joint} "
                              f"max={eff.max_joint}")
        exact = {(a.counts, b.counts) for a, b, _ in find_pure_nash(self.bip).equilibria}
        for result in samples.results["mc_nash"]:
            found = {(a.counts, b.counts) for a, b, _ in result["nash"].equilibria}
            self.ledger.check("Monte Carlo oracle's equilibria include the exact ones",
                              exact <= found, f"missing {sorted(exact - found)}")

    def probes(self, tracer):
        allocation_probe(tracer, self.hub_game.graph.n)
        with tracer.span("dynamics.schedule_build"):
            for game in self.games:
                s = game.schedule
                if isinstance(s, ParallelRounds):
                    ParallelRounds(s.max_rounds)
                else:
                    SinglePassOrder(s.order)
        profile = StrategyProfile(Allocation.from_seeds(12, [0]), Allocation.from_seeds(12, [1]))
        contagion_probe(tracer, self.bip, profile, self.seed, runs=20 if self.tiny else 200)


# ---------------------------------------------------------------------------
# layered_dp: the layered dynamic program's arithmetic.
# ---------------------------------------------------------------------------


class LayeredDp(Workload):
    name = "layered_dp"

    def setup(self, tracer):
        self.sampler_trials = 500 if self.tiny else 2000
        with tracer.span("gadgets.build"):
            self.polar = (polarization_amplifier(2, 200, 10000, 2.0) if self.tiny
                          else polarization_amplifier(4, 40, 4000, 1.25))
            self.convex = convexity_amplifier(4, 6, 1.25, 8192)
        with tracer.span("layered.structure"):
            self.structure = LayeredStructure(((4, 16, 64),) if self.tiny
                                              else ((4, 32, 128, 1024),))
        with tracer.span("engine.allocation"):
            n = self.structure.n
            self.profile = StrategyProfile(Allocation.from_seeds(n, [0]),
                                           Allocation.from_seeds(n, [1]))
        with tracer.span("dynamics.adoption_build"):
            self.dyn = SwitchSelectAdoption(PowerSwitch(1.25), linear_selection())
        self.cli_gadget = {"kind": "polarization_amplifier", "stages": 2, "middle_size": 200,
                           "big_final_size": 10000, "selection_exponent": 2.0}
        # The gadget's graph has 2M edges; the stub keeps graph.json small.
        self.config = self.write_config("polarization", {"graph": {"gadget": self.cli_gadget},
                                                         "max_graph_edges": 1})

    def parts(self, tracer):
        polar = traced_gadget(self.polar, tracer)
        convex = traced_gadget(self.convex, tracer)
        dyn = counting_adoption(self.dyn, tracer)

        def dp():
            with tracer.span("layered.dp"):
                return {"est": layered_exact_payoffs(self.structure, dyn, self.profile)}

        def sampler():
            with tracer.span("layered.sampler"):
                est = layered_estimate_payoffs(self.structure, dyn, self.profile,
                                               n_trials=self.sampler_trials,
                                               master_seed=self.seed)
            return {"trials": self.sampler_trials, "est": est}

        # The sampler's calls are short and scatter widely on a noisy host;
        # three calls a pass give it a steadier median.
        sample = ("sampler", sampler)
        return [("polarization", lambda: {"ver": verify(polar, tracer)}), sample,
                ("convexity", lambda: {"ver": verify(convex, tracer)}), sample,
                ("dp", dp), sample, ("cli", lambda: self.cli_part(tracer))]

    def cli_runs(self):
        return {"gadget-polarization": ("gadget", ["--config", self.config])}

    def direct_cli_work(self):
        params = {k: v for k, v in self.cli_gadget.items() if k != "kind"}
        verify_gadget(build_gadget(self.cli_gadget["kind"], params))

    def mc_trials_per_s(self, samples):
        return samples.median_rate("sampler", "trials")

    def part_metrics(self, samples):
        return {"gadgets.verify_s": samples.median("polarization") + samples.median("convexity"),
                "layered.sampler_trials_per_s": samples.median_rate("sampler", "trials")}

    def checks(self, samples):
        for result in samples.results["polarization"]:
            self.ledger.check("polarization amplifier verifies (ok)", result["ver"].ok)
        for result in samples.results["convexity"]:
            ver = result["ver"]
            poa = ver.measured["poa_vs_designated"]
            self.ledger.check("convexity amplifier PoA matches criterion 10",
                              abs(poa / CONVEX_POA_PINNED - 1.0) <= 1e-9, f"{poa!r}")
            if not ver.ok:
                self.ledger.known_defects.append(
                    "convexity_amplifier(4, 6, 1.25, 8192): verify_gadget ok=false; the "
                    "designated profile is not an equilibrium (ROADMAP item 4)")
        dp = samples.results["dp"][-1]["est"]
        for result in samples.results["sampler"]:
            within_sigmas(self.ledger, f"layered sampler within {SIGMAS:g} sigma of the DP",
                          result["est"], dp.pi_R, dp.pi_B)

    def probes(self, tracer):
        allocation_probe(tracer, max(self.polar.n_vertices, self.convex.n_vertices))
        with tracer.span("dynamics.schedule_build"):
            self.polar.structure.depth_schedule()
            self.convex.structure.depth_schedule()
            self.structure.depth_schedule()


# ---------------------------------------------------------------------------
# huge_gadget: bookkeeping at a million vertices.
# ---------------------------------------------------------------------------


class HugeGadget(Workload):
    name = "huge_gadget"

    def setup(self, tracer):
        self.sampler_trials = 200 if self.tiny else 5000
        # Drop the previous build first: two of them at once double peak memory.
        self.convex = None
        with tracer.span("gadgets.build"):
            self.convex = (convexity_amplifier(4, 3, 2.0, 512) if self.tiny
                           else convexity_amplifier(4, 4, 2.0, 8192))
            self.chain = chain_replication(4, 17, 1000)
            self.threshold = threshold_two_layer(20, 10, 1000, 0.5)
        self.config = self.write_config("chain", {"graph": {"gadget": README_CHAIN_GADGET}})

    def parts(self, tracer):
        convex = traced_gadget(self.convex, tracer)
        chain = traced_gadget(self.chain, tracer)
        threshold = traced_gadget(self.threshold, tracer)

        def sampler():
            with tracer.span("layered.sampler"):
                est = layered_estimate_payoffs(convex.structure, convex.dynamics,
                                               designated(convex), n_trials=self.sampler_trials,
                                               master_seed=self.seed)
            return {"trials": self.sampler_trials, "est": est}

        return [("convexity", lambda: {"ver": verify(convex, tracer)}),
                ("chain_threshold", lambda: {"chain": verify(chain, tracer),
                                             "threshold": verify(threshold, tracer)}),
                ("sampler", sampler),
                ("cli", lambda: self.cli_part(tracer))]

    def cli_runs(self):
        return {"gadget-chain": ("gadget", ["--config", self.config])}

    def direct_cli_work(self):
        params = {k: v for k, v in README_CHAIN_GADGET.items() if k != "kind"}
        spec = build_gadget(README_CHAIN_GADGET["kind"], params)
        verify_gadget(spec)
        serialize_graph(spec.build_graph())

    def mc_trials_per_s(self, samples):
        return samples.median_rate("sampler", "trials")

    def part_metrics(self, samples):
        return {"gadgets.verify_s": samples.median("convexity") + samples.median("chain_threshold"),
                "layered.sampler_trials_per_s": samples.median_rate("sampler", "trials")}

    def checks(self, samples):
        ver = samples.results["convexity"][-1]["ver"]
        if not ver.ok:
            p = self.convex.params
            self.ledger.known_defects.append(
                f"convexity_amplifier({p['base_size']}, {p['depth']}, {p['switch_exponent']}, "
                f"{p['final_small']}): verify_gadget ok=false; the designated profile is not "
                "an equilibrium (ROADMAP item 4)")
        for result in samples.results["sampler"]:
            within_sigmas(self.ledger, f"DP within {SIGMAS:g} sigma of the layered sampler",
                          result["est"], ver.measured["designated_pi_R"],
                          ver.measured["designated_pi_B"])
        for result in samples.results["chain_threshold"]:
            chain, threshold = result["chain"], result["threshold"]
            share = chain.measured["blue_final_chain_share"]
            self.ledger.check("chain replication verifies with criterion 9's share",
                              chain.ok and share == CHAIN_BLUE_SHARE, f"ok={chain.ok} share={share}")
            got = {k: threshold.measured[k] for k in THRESHOLD_PINNED}
            self.ledger.check("threshold gadget verifies with criterion 6's values",
                              threshold.ok and got == THRESHOLD_PINNED, f"ok={threshold.ok} {got}")

    def probes(self, tracer):
        allocation_probe(tracer, self.convex.n_vertices)
        with tracer.span("dynamics.schedule_build"):
            self.convex.structure.depth_schedule()
            self.chain.chain.depth_schedule()
        with tracer.span("graphs.build"):
            self.chain.build_graph()


WORKLOADS = {w.name: w for w in (McSpread, NashSweep, LayeredDp, HugeGadget)}


def _quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[k]
