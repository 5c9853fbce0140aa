"""Per-layer tracing of one benchmark repetition, installed from outside the
package: every traced function is wrapped and the wrapper is bound in place
of the original wherever conjcert holds it -- the defining module, every
module that imported it with ``from .x import y``, and class attributes
(including aliases such as ``__radd__ = __add__``).  Installation fails if an
original is still held in a module-level table, and run.py fails a traced run
whose mapped metrics read zero, so a new import path cannot make a layer
silently invisible.

Timed wrappers record spans on a stack.  A span's self time is its duration
minus its child spans and is summed per layer; a metric's busy time counts
only the outermost call, so recursion is not counted twice.  Scalar
operators of ``fields`` (and ``Fraction``) are counted but not timed: per
call timing of a single addition would mostly measure the tracer.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("fields", "linalg", "groups", "semidirect", "sl2", "affine",
          "heisenberg", "cli")
ALL = ("finite_gl23", "sl2v_sweep", "affine_kron", "lift_verify")

# (metric, unit, workloads on which it must be non-zero)
PER_LAYER = (
    ("fields.fp_ops", "count", ("finite_gl23",)),
    ("fields.q_ops", "count", ("sl2v_sweep", "affine_kron")),
    ("fields.qqi_ops", "count", ("lift_verify",)),
    ("linalg.matmul_calls", "count", ("finite_gl23", "affine_kron")),
    ("linalg.matmul_s", "s", ("finite_gl23", "affine_kron")),
    ("linalg.apply_calls", "count", ("sl2v_sweep",)),
    ("linalg.apply_s", "s", ("sl2v_sweep",)),
    ("linalg.elim_calls", "count", ("affine_kron",)),
    ("linalg.elim_s", "s", ("affine_kron",)),
    ("linalg.elim_max_cols", "count", ("affine_kron",)),
    ("linalg.pow_s", "s", ("affine_kron",)),
    ("linalg.self_s", "s", ("finite_gl23", "affine_kron")),
    ("groups.closure_s", "s", ("finite_gl23",)),
    ("groups.closure_size", "count", ("finite_gl23",)),
    ("groups.oracle_s", "s", ("finite_gl23",)),
    ("groups.oracle_conjugations", "count", ("finite_gl23",)),
    ("groups.oracle_yield", "ratio", ("finite_gl23",)),
    ("groups.order_calls", "count", ("sl2v_sweep", "finite_gl23")),
    ("groups.order_s", "s", ("sl2v_sweep", "finite_gl23")),
    ("groups.cert_checks.build", "count", ALL),
    ("groups.cert_check_s.build", "s", ALL),
    ("groups.cert_checks.verify", "count", ("lift_verify", "finite_gl23")),
    ("groups.cert_check_s.verify", "s", ("lift_verify", "finite_gl23")),
    ("groups.self_s", "s", ("finite_gl23",)),
    ("semidirect.affine_mults", "count", ("finite_gl23",)),
    ("semidirect.affine_mul_s", "s", ("finite_gl23",)),
    ("semidirect.pair_mults", "count", ("lift_verify",)),
    ("semidirect.lift_calls", "count", ("lift_verify",)),
    ("semidirect.lift_s", "s", ("lift_verify",)),
    ("semidirect.witness_s", "s", ("affine_kron", "sl2v_sweep")),
    ("semidirect.self_s", "s", ("finite_gl23", "lift_verify")),
    ("sl2.rho_calls", "count", ("sl2v_sweep",)),
    ("sl2.rho_hits", "count", ("sl2v_sweep",)),
    ("sl2.rho_misses", "count", ("sl2v_sweep",)),
    ("sl2.rho_s", "s", ("sl2v_sweep",)),
    ("sl2.classify_real_s", "s", ("sl2v_sweep",)),
    ("sl2.classify_rational_s", "s", ("sl2v_sweep",)),
    ("sl2.negation_search_s", "s", ("sl2v_sweep",)),
    ("sl2.order_probe_mults", "count", ("sl2v_sweep",)),
    ("sl2.order_probe_capped", "ratio", ("sl2v_sweep",)),
    ("sl2.self_s", "s", ("sl2v_sweep",)),
    ("affine.linear_certs_s", "s", ("affine_kron",)),
    ("affine.split_s", "s", ("affine_kron",)),
    ("affine.classify_s", "s", ("affine_kron",)),
    ("affine.det_per_cert", "ratio", ("affine_kron",)),
    ("affine.self_s", "s", ("affine_kron",)),
    ("heisenberg.complex_reality_s", "s", ("lift_verify",)),
    ("heisenberg.gsp_act_calls", "count", ("lift_verify",)),
    ("heisenberg.self_s", "s", ("lift_verify",)),
    ("cli.decode_s", "s", ("lift_verify",)),
    ("cli.encode_s", "s", ("lift_verify",)),
    ("cli.digest_s", "s", ("lift_verify",)),
    ("cli.serialize_s", "s", ("lift_verify", "finite_gl23")),
    ("cli.report_bytes", "count", ("lift_verify", "finite_gl23")),
    ("cli.self_s", "s", ALL),
)

_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__")


class TraceError(RuntimeError):
    """A traced function is still bound somewhere in its original form."""


class Tracer:
    def __init__(self):
        self.phase = "build"
        self.stack = []
        self.busy = defaultdict(float)
        self.depth = defaultdict(int)
        self.layer_depth = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(int)
        self.peak = defaultdict(int)
        self._originals = []

    # -- wrappers ----------------------------------------------------------

    def span(self, fn, layer, busy=None, calls=None, after=None):
        """Timed wrapper; busy/calls may contain "{phase}"."""
        tracer, stack, depth = self, self.stack, self.depth
        phased = busy is not None and "{phase}" in busy

        def traced(*args, **kwargs):
            busy_key = busy.format(phase=tracer.phase) if phased else busy
            if busy_key:
                depth[busy_key] += 1
            tracer.layer_depth[layer] += 1
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer.layer_self[layer] += elapsed - frame[0]
                tracer.layer_depth[layer] -= 1
                if busy_key:
                    depth[busy_key] -= 1
                    if not depth[busy_key]:
                        tracer.busy[busy_key] += elapsed
            if calls:
                tracer.counts[calls.format(phase=tracer.phase) if phased else calls] += 1
            if after is not None:
                after(args, result)
            return result
        return traced

    def counter(self, fn, name):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    # -- installation ------------------------------------------------------

    def install(self):
        from conjcert import (affine, cli, fields, groups, heisenberg, linalg,
                              semidirect, sl2)

        modules = [m for n, m in sys.modules.items()
                   if n == "conjcert" or n.startswith("conjcert.")]
        owners = modules + [v for m in modules for v in vars(m).values()
                            if isinstance(v, type) and v.__module__.startswith("conjcert")]
        owners = list({id(o): o for o in owners}.values())
        owners.append(Fraction)

        def patch(owner, name, make):
            original = vars(owner)[name]
            wrapper = make(original)
            for o in owners:
                for attr, value in list(vars(o).items()):
                    if value is original:
                        setattr(o, attr, wrapper)
            self._originals.append((f"{owner.__name__}.{name}", original))
            return original

        for cls, metric in ((fields.FpElement, "fields.fp_ops"),
                            (Fraction, "fields.q_ops"),
                            (fields.GaussianRational, "fields.qqi_ops")):
            done = set()
            for name in _OPERATORS:
                fn = vars(cls).get(name)
                if fn is not None and id(fn) not in done:
                    done.add(id(fn))
                    patch(cls, name, lambda f, m=metric: self.counter(f, m))

        span = self.span
        M = linalg.Matrix
        patch(M, "__mul__", lambda f: span(f, "linalg", "linalg.matmul_s", "linalg.matmul_calls"))
        patch(M, "apply", lambda f: span(f, "linalg", "linalg.apply_s", "linalg.apply_calls"))
        patch(M, "__pow__", lambda f: span(f, "linalg", "linalg.pow_s"))

        def widest(args, _result):
            cols = args[0].cols
            if cols > self.peak["linalg.elim_max_cols"]:
                self.peak["linalg.elim_max_cols"] = cols

        def det_in_affine(f):
            def counted(*args):
                if self.layer_depth["affine"]:
                    self.counts["affine.det_calls"] += 1
                return f(*args)
            return counted

        def elim(f):
            return span(f, "linalg", "linalg.elim_s", "linalg.elim_calls", widest)
        patch(M, "det", lambda f: det_in_affine(elim(f)))
        patch(M, "inverse", elim)
        for name in ("solve_linear", "kernel_basis", "column_space_basis"):
            patch(linalg, name, elim)

        def closure_size(_args, result):
            self.peak["groups.closure_size"] = max(self.peak["groups.closure_size"], len(result))

        def real_yield(_args, result):
            self.counts["groups.oracle_certs"] += result is not None

        def rational_yield(_args, result):
            self.counts["groups.oracle_certs"] += len(result) if result else 0

        def conjugation(f):
            def counted(*args):
                if self.depth["groups.oracle_s"]:
                    self.counts["groups.oracle_conjugations"] += 1
                return f(*args)
            return counted

        patch(groups, "generate_closure", lambda f: span(f, "groups", "groups.closure_s",
                                                         after=closure_size))
        patch(groups, "is_real_bruteforce", lambda f: span(f, "groups", "groups.oracle_s",
                                                           after=real_yield))
        patch(groups, "is_rational_bruteforce", lambda f: span(f, "groups", "groups.oracle_s",
                                                               after=rational_yield))
        patch(groups.FiniteGroup, "inverse_of", conjugation)
        patch(groups.Certificate, "check", lambda f: span(
            f, "groups", "groups.cert_check_s.{phase}", "groups.cert_checks.{phase}"))

        def order_probe(f):
            def probed(g, *args, **kwargs):
                if not isinstance(g, sl2.SL2VElement):
                    return f(g, *args, **kwargs)
                before = self.counts["sl2.vector_mults"]
                result = f(g, *args, **kwargs)
                self.counts["sl2.order_probes"] += 1
                self.counts["sl2.order_probe_mults"] += self.counts["sl2.vector_mults"] - before
                self.counts["sl2.order_probes_capped"] += not result.is_finite
                return result
            return probed
        patch(groups, "element_order", lambda f: order_probe(
            span(f, "groups", "groups.order_s", "groups.order_calls")))

        S = semidirect
        patch(S.AffineElement, "__mul__", lambda f: span(
            f, "semidirect", "semidirect.affine_mul_s", "semidirect.affine_mults"))
        patch(S.SemidirectElement, "__mul__", lambda f: self.counter(f, "semidirect.pair_mults"))
        patch(S, "lift_central_series", lambda f: span(
            f, "semidirect", "semidirect.lift_s", "semidirect.lift_calls"))
        for name in ("make_real_witness", "make_power_witness"):
            patch(S, name, lambda f: span(f, "semidirect", "semidirect.witness_s"))

        self.rho = patch(sl2, "rho", lambda f: span(f, "sl2", "sl2.rho_s", "sl2.rho_calls"))
        patch(sl2.SL2VElement, "__mul__", lambda f: self.counter(f, "sl2.vector_mults"))
        for name, metric in (("classify_real", "sl2.classify_real_s"),
                             ("classify_rational_sl2v", "sl2.classify_rational_s"),
                             ("negation_witness_search", "sl2.negation_search_s")):
            patch(sl2, name, lambda f, m=metric: span(f, "sl2", m))

        for name, metric in (("rationality_certificates_linear", "affine.linear_certs_s"),
                             ("split_at_eigenvalue_one", "affine.split_s"),
                             ("classify_affine_rational", "affine.classify_s")):
            patch(affine, name, lambda f, m=metric: span(f, "affine", m))

        patch(heisenberg, "complex_heisenberg_reality", lambda f: span(
            f, "heisenberg", "heisenberg.complex_reality_s"))
        patch(heisenberg, "gsp_act", lambda f: self.counter(f, "heisenberg.gsp_act_calls"))

        def report_bytes(_args, result):
            if self.phase == "build":
                self.counts["cli.report_bytes"] += len(result)

        patch(cli.GroupCodec, "decode", lambda f: span(f, "cli", "cli.decode_s"))
        patch(cli.GroupCodec, "encode", lambda f: span(f, "cli", "cli.encode_s"))
        patch(cli, "_digest", lambda f: span(f, "cli", "cli.digest_s"))
        patch(cli, "_canonical", lambda f: span(f, "cli", "cli.serialize_s",
                                                after=report_bytes))
        patch(cli, "build_report", lambda f: span(f, "cli"))
        patch(cli, "verify_report", lambda f: span(f, "cli"))

        # patch() rebinds every module and class attribute; an original kept
        # in a module-level table (say a dispatch dict) would escape it
        originals = {id(original): label for label, original in self._originals}
        for module in modules:
            for attr, value in vars(module).items():
                items = value.values() if isinstance(value, dict) else value
                if isinstance(value, (dict, list, tuple)):
                    for item in items:
                        if id(item) in originals:
                            raise TraceError(f"{originals[id(item)]} is still held in "
                                             f"{module.__name__}.{attr}")

    # -- results -----------------------------------------------------------

    def metrics(self, affine_certificates: int) -> dict:
        c, busy = self.counts, self.busy
        info = self.rho.cache_info()
        probes = c["sl2.order_probes"]
        values = {
            "fields.fp_ops": c["fields.fp_ops"],
            "fields.q_ops": c["fields.q_ops"],
            "fields.qqi_ops": c["fields.qqi_ops"],
            "linalg.elim_max_cols": self.peak["linalg.elim_max_cols"],
            "groups.closure_size": self.peak["groups.closure_size"],
            "groups.oracle_yield": (c["groups.oracle_certs"] / c["groups.oracle_conjugations"]
                                    if c["groups.oracle_conjugations"] else 0.0),
            "sl2.rho_hits": info.hits,
            "sl2.rho_misses": info.misses,
            "sl2.order_probe_capped": c["sl2.order_probes_capped"] / probes if probes else 0.0,
            "affine.det_per_cert": (c["affine.det_calls"] / affine_certificates
                                    if affine_certificates else 0.0),
        }
        for layer in LAYERS[1:]:
            values[f"{layer}.self_s"] = self.layer_self[layer]
        for name, unit, _ in PER_LAYER:
            if name not in values:
                values[name] = busy[name] if unit == "s" else c[name]
        return values
