"""SL008 negative: everything serialization covers."""

import collections

import numpy as np

from repro.platform.topology import Bolt


class CleanBolt(Bolt):
    def __init__(self):
        self.counts = collections.Counter()
        self.window = collections.deque()
        self.weights = np.zeros(8)
        self.name = "clean"
        self.seen = set()
        self.key_fn = lambda v: v[0]

    def process(self, values, emit):
        self.counts[values[0]] += 1
