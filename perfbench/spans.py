"""Span tracer for the benchmark: per-layer calls, self time and counters.

The tracer wraps selected public functions of `etamock` from the outside.
Each call becomes a span with a name, start, end and parent.  Because the
package's modules import each other's functions by name (`mu.py` does
`from .theta import jacobi_theta`), a wrapper only sees every call if it
is rebound in every `etamock` module that holds the original function;
`Tracer.install` does that and `Tracer.uninstall` puts every original
back.

Per-term helpers such as `e2pi` are deliberately left unwrapped: they run
about a hundred thousand times per period-integral check, and spans on
them would measure the tracer rather than the program.
"""

import sys
import time
from array import array
from dataclasses import dataclass

PACKAGE = "etamock"


@dataclass(frozen=True)
class Layer:
    """One wrapped function and the extra counters its span records.

    module, function: where the function is defined, e.g. ("theta", "g_ab").
    variant: optional (suffix, predicate(args, kwargs)); calls for which the
        predicate holds are also reported under "<module>.<function>.<suffix>".
    evals: index of a callable argument whose calls are counted as
        integrand evaluations.
    cache: name of a module-level dict whose growth during a call counts
        as a cache miss.
    """

    module: str
    function: str
    variant: tuple = None
    evals: int = None
    cache: str = None

    @property
    def name(self):
        return "%s.%s" % (self.module, self.function)


def _small_im(args, kwargs):
    tau = args[1] if len(args) > 1 else kwargs["tau"]
    return complex(tau).imag < 0.05


LAYERS = (
    Layer("qseries", "eta"),
    Layer("qseries", "eta_quotient_qexp"),
    Layer("theta", "jacobi_theta", variant=("small_im", _small_im)),
    Layer("theta", "g_ab"),
    Layer("theta", "eta_theta_eval"),
    Layer("theta", "eta_theta_qexp"),
    Layer("mu", "mu"),
    Layer("mu", "R_correction"),
    Layer("mu", "mordell_h"),
    Layer("vmn", "vmn_eval_mu"),
    Layer("vmn", "vmn_eval_series"),
    Layer("vmn", "verify_thm11"),
    Layer("quantum", "F_hk"),
    Layer("quantum", "companion_sum"),
    Layer("quantum", "in_quantum_set"),
    Layer("eichler", "adaptive_panels", evals=0),
    Layer("eichler", "ray_integral", evals=0),
    Layer("eichler", "gauss_legendre_nodes", cache="_gl_cache"),
    Layer("eichler", "integral_identity_lhs", cache="_lhs_cache"),
)


def metric_names(layers=LAYERS):
    """Every per-layer metric name the tracer reports, in a fixed order."""
    names = []
    for layer in layers:
        stats = ["calls", "misses"] if layer.cache else ["calls", "self_s"]
        if layer.evals is not None:
            stats.append("evals")
        names += ["%s.%s" % (layer.name, s) for s in stats]
        if layer.variant:
            names += ["%s.%s.%s" % (layer.name, layer.variant[0], s)
                      for s in ("calls", "self_s")]
    return names


class Tracer:
    """Records spans for the wrapped layers of one process.

    Spans are kept in flat arrays (name id, start, end, parent index) and
    turned into per-layer numbers once, by `layer_stats`.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.names = []
        self.name_ids = {}
        self.key = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters = {}
        self.excluded = {}
        self._open = []
        self._rebound = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open_span(self, name):
        idx = len(self.key)
        self.key.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._open.append(idx)
        return idx

    def close_span(self, idx):
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def exclude(self, seconds):
        """Take `seconds` of the benchmark's own work, done inside the
        innermost open span, off that span's self time (index -1: no span
        was open)."""
        owner = self._open[-1] if self._open else -1
        self.excluded[owner] = self.excluded.get(owner, 0.0) + seconds

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, layer, func, module):
        tracer = self
        base = layer.name

        def wrapper(*args, **kwargs):
            name = base
            if layer.variant and layer.variant[1](args, kwargs):
                name = "%s.%s" % (base, layer.variant[0])
            if layer.evals is not None:
                inner = args[layer.evals]

                def counted(*a, **k):
                    tracer.count(base + ".evals")
                    return inner(*a, **k)

                args = args[:layer.evals] + (counted,) + args[layer.evals + 1:]
            before = len(getattr(module, layer.cache)) if layer.cache else 0
            idx = tracer.open_span(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close_span(idx)
                if layer.cache:
                    tracer.count(base + ".misses",
                                 len(getattr(module, layer.cache)) - before)

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        return wrapper

    def install(self):
        """Rebind every wrapped function in every loaded etamock module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer in self.layers:
            home = sys.modules["%s.%s" % (PACKAGE, layer.module)]
            original = getattr(home, layer.function)
            wrapper = self._wrap(layer, original, home)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))

    def uninstall(self):
        """Put back every original function that `install` replaced."""
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound = []

    def root_time(self):
        """Seconds covered by spans that have no parent."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.key)) if self.parent[i] < 0)

    def layer_stats(self):
        """Per-layer metrics: calls, self time and the recorded counters."""
        stats = {name: 0 for name in metric_names(self.layers)}
        own = self_times(self.key, self.start, self.end, self.parent,
                         len(self.names), self.excluded)
        for name_id, name in enumerate(self.names):
            calls, self_s = own[name_id]
            # a variant span also counts toward its function's totals
            targets = [name]
            if name.count(".") > 1:
                targets.append(name.rsplit(".", 1)[0])
            for target in targets:
                stats[target + ".calls"] += calls
                if target + ".self_s" in stats:
                    stats[target + ".self_s"] += self_s
        for name, value in self.counters.items():
            stats[name] += value
        return stats


def self_times(key, start, end, parent, n_names, excluded=None):
    """(calls, self seconds) per name id.

    A span's self time is its duration minus the durations of its direct
    children and minus `excluded[span]`, if given.  Spans come from one
    thread of synchronous calls, so children never overlap each other and
    lie inside their parent.
    """
    excluded = excluded or {}
    child = [0.0] * len(key)
    for i in range(len(key)):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out = [[0, 0.0] for _ in range(n_names)]
    for i in range(len(key)):
        acc = out[key[i]]
        acc[0] += 1
        acc[1] += end[i] - start[i] - child[i] - excluded.get(i, 0.0)
    return out
