"""A scalar, pure-Python reference of the library's random streams, written
apart from `engine`'s array code so that tests can check that code against it.

Replication i under a master seed and a stream tag tuple has a 64-bit key: a
SplitMix64 fold of the master seed's 64-bit words (low word first), their
count, the stream tags and i.  Its random stream is SplitMix64 (Steele, Lea and
Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014) started
at the key: `random()` is its next double u, and `integers(k)` is floor(k·u).
The samplers draw their binomials from the stream itself, by inversion or by
Hörmann's BTRS; `layered_run` and `chain_block_run` are the layer and chain
samplers' row-at-a-time references.
"""

import math

import numpy as np

from contagion_games import split_seeds
from contagion_games.graphs import BLUE, RED, UNINFECTED

GAMMA = 0x9E3779B97F4A7C15
MASK = 2**64 - 1


def mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def fold(key: int, *words: int) -> int:
    for word in words:
        key = mix64((key + word + GAMMA) & MASK)
    return key


def seed_key(master_seed: int, stream=()) -> int:
    words = []
    while True:
        words.append(master_seed & MASK)
        master_seed >>= 64
        if not master_seed:
            break
    return fold(0, *words, len(words), *stream)


def replication_key(master_seed: int, index: int, stream=()) -> int:
    return fold(seed_key(master_seed, stream), index)


class SplitMix64(np.random.Generator):
    """A scalar generator of one stream: `random()` draws its next double and
    `integers(k)` floor(k·u) of it.  It is a numpy `Generator` only so that
    `run_contagion` takes it as one; no other method draws from the stream."""

    def __init__(self, key: int):
        super().__init__(np.random.PCG64(0))
        self.state = key

    def next64(self) -> int:
        self.state = (self.state + GAMMA) & MASK
        return mix64(self.state)

    def random(self) -> float:
        return (self.next64() >> 11) / 2.0**53

    def integers(self, k: int) -> int:
        return math.floor(k * self.random())


def replication_rng(master_seed: int, index: int, stream=()) -> SplitMix64:
    """The scalar generator replication `index` runs on."""
    return SplitMix64(replication_key(master_seed, index, stream))


def support_pair(pairs, stream: SplitMix64):
    """The (red, blue) allocations of the support pair a replication runs: with
    more than one pair, the first whose cumulative probability exceeds one
    uniform, or the last."""
    if len(pairs) == 1:
        return pairs[0][1:]
    u, acc = stream.random(), 0.0
    for p, red, blue in pairs:
        acc += p
        if u < acc:
            return red, blue
    return pairs[-1][1:]


# The layer sampler, one replication at a time.

INVERSION_MEAN = 10.0
STIRLING_TAIL = [math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + (k + 1)
                 - 0.5 * math.log(2.0 * math.pi) for k in range(10)]


def stirling_tail(k: float) -> float:
    """log k! less Stirling's formula at k + 1: exact below 10, its series above."""
    if k < 10.0:
        return STIRLING_TAIL[int(k)]
    k1 = k + 1.0
    sq = k1 * k1
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / sq) / sq) / k1


def log(x: float) -> float:
    """numpy's log, which the array code uses, with log 0 = -inf."""
    with np.errstate(divide="ignore"):
        return float(np.log(np.float64(x)))


def inversion(stream: SplitMix64, n: int, p: float) -> int:
    u = stream.random()
    ratio = p / (1.0 - p)
    pmf = float(np.exp(n * np.log1p(np.float64(-p))))
    k = 0
    while u >= pmf and pmf > 0.0 and k < n:
        u -= pmf
        k += 1
        pmf *= (n - k + 1) / k * ratio
    return k


def btrs(stream: SplitMix64, n: int, p: float) -> int:
    """Hörmann's BTRS ("The generation of binomial random variates", 1993)
    for p <= 1/2 and n p >= 10, two uniforms an attempt."""
    spq = float(np.sqrt(np.float64(n * p * (1.0 - p))))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    ratio = p / (1.0 - p)
    m = float(math.floor((n + 1) * p))
    nm = n - m + 1.0
    h = (m + 0.5) * log((m + 1.0) / (ratio * nm)) + stirling_tail(m) + stirling_tail(n - m)
    while True:
        u = stream.random() - 0.5
        v = stream.random()
        us = 0.5 - abs(u)
        if us == 0.0:
            continue
        k = float(math.floor((2.0 * a / us + b) * u + c))
        if not 0.0 <= k <= n:
            continue
        if us >= 0.07 and v <= v_r:
            return int(k)
        nk = n - k + 1.0
        bound = (h + (n + 1.0) * log(nm / nk) + (k + 0.5) * log(nk * ratio / (k + 1.0))
                 - stirling_tail(k) - stirling_tail(n - k))
        if log(v * alpha / (a / (us * us) + b)) <= bound:
            return int(k)


def binomial(stream: SplitMix64, n: int, p: float) -> int:
    """Binom(n, p) on the smaller side q = min(p, 1 - p), reflected for p >
    1/2; no draw where the outcome is certain."""
    p = min(p, 1.0)
    q = min(p, 1.0 - p)
    if n == 0 or q == 0.0:
        x = 0
    elif n * q < INVERSION_MEAN:
        x = inversion(stream, n, q)
    else:
        x = btrs(stream, n, q)
    return n - x if p > 0.5 else x


def layered_run(structure, dyn, pairs, key: int) -> tuple[int, int]:
    """The layer sampler's (chi_R, chi_B) of the replication keyed by key:
    the support draw (for more than one pair), then per component and layer,
    a uniform per contested seed in vertex order, then Binom(m, P[Red or
    Blue]) adopters among the m unseeded vertices, then Binom(adopters,
    P[Red] / P[Red or Blue]) of them red, at the predecessor's fractions."""
    stream = SplitMix64(key)
    red, blue = support_pair(pairs, stream)
    red_seeds, blue_seeds = dict(red.seeds), dict(blue.seeds)
    seeded = sorted(set(red_seeds) | set(blue_seeds))
    chi_r = chi_b = 0
    start = 0
    for sizes in structure.component_layer_sizes:
        before = None
        for size in sizes:
            r = b = 0
            for v in seeded:
                if not start <= v < start + size:
                    continue
                if v in red_seeds and v in blue_seeds:
                    if stream.random() < red_seeds[v] / (red_seeds[v] + blue_seeds[v]):
                        r += 1
                    else:
                        b += 1
                elif v in red_seeds:
                    r += 1
                else:
                    b += 1
            if before is not None:
                r0, b0, d = before
                pr, pb, _ = dyn.update_probs(r0 / d, b0 / d)
                pa = pr + pb
                adopters = binomial(stream, size - r - b, pa)
                x = binomial(stream, adopters, pr / pa if pa > 0.0 else 0.0)
                r += x
                b += adopters - x
            chi_r += r
            chi_b += b
            before = r, b, size
            start += size
    return chi_r, chi_b


def chain_block_run(layout, dyn, red, blue, key: int) -> tuple[int, int]:
    """The chain block sampler's (red, blue) counts of the run keyed by key: a
    uniform per contested input in vertex order, one per chain depth, then
    Binom(n_terminal, P[Red]) red terminals and Binom(n_terminal - reds,
    P[Blue] / (1 - P[Red])) blue ones behind an infected final chain vertex."""
    stream = SplitMix64(key)
    red_only, blue_only, contested = split_seeds(red, blue)
    colors = [RED if v in red_only else BLUE if v in blue_only else UNINFECTED
              for v in range(layout.n_inputs)]
    for v, p_red in contested:
        colors[v] = RED if stream.random() < p_red else BLUE
    chi_r = chi_b = 0
    state = colors[0]
    for depth in range(1, layout.chain_len + 1):
        ins = colors[depth]
        pr, pb, _ = dyn.update_probs(((ins == RED) + (state == RED)) / 2.0,
                                     ((ins == BLUE) + (state == BLUE)) / 2.0)
        z = stream.random()
        state = RED if z < pr else BLUE if z < pr + pb else UNINFECTED
        chi_r += state == RED
        chi_b += state == BLUE
    if state != UNINFECTED:
        pr, pb, _ = dyn.update_probs(float(state == RED), float(state == BLUE))
        reds = binomial(stream, layout.n_terminal, pr)
        chi_r += reds
        chi_b += binomial(stream, layout.n_terminal - reds, pb / (1.0 - pr) if pr < 1.0 else 0.0)
    return chi_r, chi_b
