"""A scalar, pure-Python reference of the library's random streams, written
apart from `engine`'s array code so that tests can check that code against it.

Replication i under a master seed and a stream tag tuple has a 64-bit key: a
SplitMix64 fold of the master seed's 64-bit words (low word first), their
count, the stream tags and i.  Its random stream is SplitMix64 (Steele, Lea and
Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014) started
at the key.  Samplers that draw more than uniforms run on a PCG64 generator
whose state and increment are the key's first four SplitMix64 words.
"""

import numpy as np

from contagion_games import LayerOrder, ParallelRounds, SinglePassOrder

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
    """A scalar generator of one stream: `random()` draws its next double.
    It is a numpy `Generator` only so that `run_contagion` takes it as one;
    no other method draws from the stream."""

    def __init__(self, key: int):
        super().__init__(np.random.PCG64(0))
        self.state = key

    def next64(self) -> int:
        self.state = (self.state + GAMMA) & MASK
        return mix64(self.state)

    def random(self) -> float:
        return (self.next64() >> 11) / 2.0**53


def keyed_pcg64(key: int):
    """A fresh PCG64 generator in the state that `key` names."""
    stream = SplitMix64(key)
    w = [stream.next64() for _ in range(4)]
    generator = np.random.Generator(np.random.PCG64(0))
    generator.bit_generator.state = {"bit_generator": "PCG64",
                                     "state": {"state": (w[0] << 64) | w[1],
                                               "inc": (w[2] << 64) | w[3] | 1},
                                     "has_uint32": 0, "uinteger": 0}
    return generator


def replication_rng(schedule, master_seed: int, index: int, stream=()):
    """The scalar generator replication `index` runs on: SplitMix64 from its
    key under the schedules the batched kernel takes, and the keyed PCG64
    generator under the others, which run vertex by vertex."""
    key = replication_key(master_seed, index, stream)
    if type(schedule) in (ParallelRounds, SinglePassOrder, LayerOrder):
        return SplitMix64(key)
    return keyed_pcg64(key)
