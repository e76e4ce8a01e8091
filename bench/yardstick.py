"""A fixed reference job that timed runs interleave with the workload's job.

The shared VM this benchmark runs on changes speed by 10-30% over tens of
seconds, for every process alike. Every phase of a timed repetition is
therefore timed between two runs of this reference job (about 0.05 s
each), and the benchmark reports the job's time in units of the
reference time next to it (``job_ref``), which cancels most of that
drift. The reference depends on
numpy alone, never on mixerlab, so a change to the program moves the
job's time and leaves the yardstick where it was.

It mimics the program's mix: small reverse-mode autodiff graphs of
Python node objects over float32 matmuls, tanh and sums, at the d64 and
d256 widths the workloads use. Of the mixes tried it tracked the
trainers' and the embedding's drift best.
"""

import time

import numpy as np

# (rows, width, passes): many tiny d64 graphs, where per-node Python cost
# dominates as in the trainers' backward passes, then d64 graphs of one
# training batch and d256 graphs of one inverted sequence. Small enough to
# add nothing to the worker's peak memory.
SHAPES = ((22, 64, 90), (352, 64, 9), (32, 256, 9))


class Node:
    __slots__ = ("data", "grad", "parents", "back")

    def __init__(self, data, parents=(), back=None):
        self.data, self.grad, self.parents, self.back = data, None, parents, back


def matmul(a, b):
    def back(g):
        return g @ b.data.T, a.data.T @ g

    return Node(a.data @ b.data, (a, b), back)


def tanh(a):
    out = np.tanh(a.data)

    def back(g):
        return (g * (1.0 - out * out),)

    return Node(out, (a,), back)


def add(a, b):
    return Node(a.data + b.data, (a, b), lambda g: (g, g))


def total(a):
    return Node(np.float32(a.data.sum()), (a,), lambda g: (np.full_like(a.data, g),))


def backward(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:  # iterative post-order: no self-referencing closure keeps the graph alive
        n, done = stack.pop()
        if done:
            order.append(n)
        elif id(n) not in seen:
            seen.add(id(n))
            stack.append((n, True))
            stack.extend((p, False) for p in n.parents)
    root.grad = np.float32(1.0)
    for n in reversed(order):
        if n.back is None or n.grad is None:
            continue
        for p, g in zip(n.parents, n.back(n.grad)):
            p.grad = g if p.grad is None else p.grad + g


def make_inputs():
    rng = np.random.default_rng(0)
    return [
        (rng.standard_normal((rows, width), dtype=np.float32),
         [rng.standard_normal((width, width), dtype=np.float32) / np.sqrt(width) for _ in range(4)],
         passes)
        for rows, width, passes in SHAPES
    ]


INPUTS = make_inputs()


def run_once():
    """One reference job; returns a checksum so that no work is skipped."""
    check = 0.0
    for x, weights, passes in INPUTS:
        for _ in range(passes):
            h = Node(x)
            params = [Node(w) for w in weights]
            for w in params:
                h = add(tanh(matmul(h, w)), h)
            loss = total(h)
            backward(loss)
            check += float(params[0].grad[0, 0])
    return check


def timed():
    """Wall seconds of one reference job."""
    t0 = time.perf_counter()
    run_once()
    return time.perf_counter() - t0
