"""Per-layer timing of ``bgmo`` by wrapping its public entry points.

The layers are the modules of ``bgmo``.  ``Tracer.install`` replaces each
public function and public method with a timing wrapper, wherever the
package holds a reference to it, plus the quadrature entry point and the
coefficient-table builders of ``series``.  Nothing inside the package changes.

Calls the benchmark makes directly become spans (name, start, end, parent);
deeper calls are folded into per-name aggregates (calls, inclusive and self
time) and per-layer totals (entries from outside the layer and time inside
it, each nested stretch counted once).  Everything stays in memory until
``write``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

LAYERS = ("special", "baselines", "gmo", "family", "series", "fitting", "cli", "datasets")
# private names wrapped besides the public ones, with the layer they count in
EXTRA = {
    "series._support_quad": "series",
    "series._phi_coeffs": "series.coeffs",
    "series._chi_coeffs": "series.coeffs",
    "series._psi_cdf_coeffs": "series.coeffs",
    "series._order_stat_poly": "series.coeffs",
    "series.expansion_coefficients": "series.coeffs",
    "series.delta_coeffs": "series.coeffs",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.origin = time.perf_counter()
        self.frames = []  # child time accumulated by each open wrapped call
        self.spans = []  # [id, parent, name, start, end]
        self.open_spans = []
        self.aggregates = {}  # name -> [calls, inclusive s, self s]
        self.layers = {}  # layer -> [entries, seconds, depth]

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "bgmo" or name.startswith("bgmo.")]
        for layer in LAYERS:
            mod = sys.modules[f"bgmo.{layer}"]
            names = getattr(mod, "__all__", None) or ["main"]
            for name in names:
                obj = getattr(mod, name)
                if inspect.isfunction(obj):
                    self._replace(modules, obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(mod, obj, layer)
            if layer == "baselines":  # every concrete family, exported or not
                for obj in vars(mod).values():
                    if inspect.isclass(obj) and issubclass(obj, mod.Baseline):
                        self._wrap_class(mod, obj, layer)
        for qualname, layer in EXTRA.items():
            mod_name, name = qualname.split(".")
            obj = getattr(sys.modules[f"bgmo.{mod_name}"], name)
            self._replace(modules, getattr(obj, "__wrapped__", obj), qualname, layer)

    def _wrap_class(self, mod, cls, layer: str) -> None:
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") or not inspect.isfunction(obj) or hasattr(obj, "__wrapped__"):
                continue
            setattr(cls, name, self._wrap(obj, f"{layer}.{cls.__name__}.{name}", layer))

    def _replace(self, modules, fn, qualname: str, layer: str) -> None:
        wrapped = self._wrap(fn, qualname, layer)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if obj is fn or getattr(obj, "__wrapped__", None) is fn:
                    setattr(mod, name, wrapped)

    def _wrap(self, fn, qualname: str, layer: str):
        agg = self.aggregates.setdefault(qualname, [0, 0.0, 0.0])
        lay = self.layers.setdefault(layer, [0, 0.0, 0])
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frames = tracer.frames
            top = not frames
            frames.append(0.0)
            if lay[2] == 0:
                lay[0] += 1
            lay[2] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                child = frames.pop()
                lay[2] -= 1
                if lay[2] == 0:
                    lay[1] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child
                if frames:
                    frames[-1] += dt
                if top:
                    tracer._record(qualname, t0, t1)

        return traced

    # --- spans ---------------------------------------------------------------------

    def _record(self, name: str, t0: float, t1: float) -> int:
        parent = self.open_spans[-1] if self.open_spans else None
        self.spans.append([len(self.spans), parent, name, t0 - self.origin, t1 - self.origin])
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span for one of the benchmark's own steps; library calls inside are its children."""
        sid = self._record(name, time.perf_counter(), float("nan"))
        self.open_spans.append(sid)
        try:
            yield
        finally:
            self.open_spans.pop()
            self.spans[sid][4] = time.perf_counter() - self.origin

    # --- results ---------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.aggregates.get(name, [0, 0.0, 0.0])[0]

    def inclusive(self, name: str) -> float:
        return self.aggregates.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.aggregates.get(name, [0, 0.0, 0.0])[2]

    def layer(self, name: str) -> tuple[int, float]:
        entries, seconds, _ = self.layers.get(name, [0, 0.0, 0])
        return entries, seconds

    def write(self, path, metrics: dict) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"kind": "span", "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            for name, (calls, incl, own) in sorted(self.aggregates.items()):
                if calls:
                    fh.write(json.dumps({"kind": "aggregate", "name": name, "calls": calls,
                                         "inclusive_s": incl, "self_s": own}) + "\n")
            for name, (entries, seconds, _) in sorted(self.layers.items()):
                fh.write(json.dumps({"kind": "layer", "name": name, "entries": entries,
                                     "seconds": seconds}) + "\n")
            fh.write(json.dumps({"kind": "metrics", "metrics": metrics}) + "\n")


def per_layer_metrics(tr: Tracer, overhead_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    fam = "family.BgmoDistribution"
    out = {
        "special.reg_inc_beta.calls": tr.calls("special.reg_inc_beta"),
        "special.reg_inc_beta.s": tr.inclusive("special.reg_inc_beta"),
        "special.beta_quantile.calls": tr.calls("special.beta_quantile"),
        "special.beta_quantile.s": tr.inclusive("special.beta_quantile"),
    }
    for layer in ("baselines", "gmo"):
        out[f"{layer}.calls"], out[f"{layer}.s"] = tr.layer(layer)
    out.update({
        "family.log_pdf.calls": tr.calls(f"{fam}.log_pdf"),
        "family.log_pdf.s": tr.inclusive(f"{fam}.log_pdf"),
        "family.cdf.s": tr.inclusive(f"{fam}.cdf"),
        "family.quantile.s": tr.inclusive(f"{fam}.quantile"),
        "series.quad.calls": tr.calls("series._support_quad"),
        "series.quad.s": tr.inclusive("series._support_quad"),
        "series.coeffs.s": tr.layer("series.coeffs")[1],
        "fitting.loglik.calls": tr.calls("fitting.log_likelihood"),
        "fitting.loglik.s": tr.inclusive("fitting.log_likelihood"),
        "fitting.score.calls": tr.calls("fitting.score"),
        "fitting.obs_info.s": tr.inclusive("fitting.observed_information"),
        "fitting.optimizer.self_s": tr.self_time("fitting.fit_mle"),
        "cli.self_s": tr.self_time("cli.main"),
        "datasets.load_s": tr.layer("datasets")[1],
        "trace.overhead_s": overhead_s,
    })
    return out
