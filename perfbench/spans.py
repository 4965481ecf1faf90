"""Layer spans for the traced benchmark run, recorded from outside gibbslab.

The package's modules import functions by name (``from .interaction import
batch_interactions``), so wrapping a function where it is defined is not
enough: the wrapper replaces the function in every module that binds it,
which also catches calls a module makes to its own functions.  A span's
self time, its duration minus the spans it caused, goes to one layer
metric; counters read work counts from each call's arguments and result.
Spans are kept on one stack, so traced code must run on one thread (the
benchmark runs study-1d with --threads 1).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("spectral", "gaussian", "interaction", "classical_gibbs",
          "fock_quantum", "hartree", "studies", "cli", "formats")

# (module, function, layer metric, modules whose binding is wrapped; None
# wraps every binding).  Helpers not listed keep their cost in the caller.
SPANS = [
    ("spectral", "build_one_body", "spectral.eig_s", None),
    ("gaussian", "sample_gaussian", "gaussian.sample_s", None),
    ("interaction", "batch_interactions", "interaction.energy_s", None),
    ("interaction", "mode_interactions", "interaction.energy_s", None),
    ("interaction", "build_pair_tensor", "interaction.tensor_s", None),
    ("interaction", "direct_term", "interaction.direct_s", None),
    ("interaction", "exchange_term", "interaction.exchange_s", None),
    # Only the Hartree solver's convolutions: inside the interaction module
    # they are part of the energy, direct and exchange spans.
    ("interaction", "convolve", "interaction.convolve_s", ("hartree",)),
    ("interaction", "quadratic_form", "interaction.convolve_s", ("hartree",)),
    ("classical_gibbs", "reweight", "classical_gibbs.reweight_s", None),
    ("classical_gibbs", "interaction_energies", "classical_gibbs.reweight_s", None),
    ("classical_gibbs", "estimate_log_zr", "classical_gibbs.reweight_s", None),
    ("classical_gibbs", "reduced_moment", "classical_gibbs.moment_s", None),
    ("classical_gibbs", "trace_distance", "classical_gibbs.moment_s", None),
    ("fock_quantum", "build_fock", "fock_quantum.assemble_s", None),
    ("fock_quantum", "second_quantize_one_body", "fock_quantum.assemble_s", None),
    ("fock_quantum", "second_quantize_pair", "fock_quantum.assemble_s", None),
    # Fills the Fock basis's annihilator caches, so it is assembly work.
    ("studies", "basis_warmup", "fock_quantum.assemble_s", None),
    ("fock_quantum", "sector_eigensystems", "fock_quantum.diag_s", None),
    ("fock_quantum", "gibbs_from_spectra", "fock_quantum.gibbs_s", None),
    ("fock_quantum", "gibbs_state", "fock_quantum.gibbs_s", None),
    ("fock_quantum", "reduced_density", "fock_quantum.rdm_s", None),
    ("hartree", "solve_reduced_hartree", "hartree.solve_s", None),
    ("hartree", "counterterm_stabilization", "hartree.stabilization_s", None),
    ("studies", "run_study_1d", "studies.self_s", None),
    ("studies", "run_study_2d_classical", "studies.self_s", None),
    ("studies", "build_model_operator", "studies.self_s", None),
    ("studies", "bind_potential", "studies.self_s", None),
    ("studies", "integrability_checks", "studies.self_s", None),
    ("studies", "fine_check_potential", "studies.self_s", None),
    ("cli", "main", "cli.self_s", None),
    ("formats", "write_json", "formats.write_s", None),
    ("formats", "write_csv", "formats.write_s", None),
    ("formats", "write_matrix", "formats.write_s", None),
    ("formats", "write_ensemble", "formats.write_s", None),
]


def _eig(c, a, r):
    c["spectral.eig_calls"] += 1
    c["spectral.eigenpairs"] += len(r.eigenvalues)


def _samples(c, a, r):
    c["gaussian.samples"] += r.size


def _energies(c, a, r):
    c["interaction.energy_evals"] += len(r)


def _exchange_pairs(c, a, r):
    K = int(a["K"])
    c["interaction.exchange_pairs"] += K * (K + 1) // 2


def _ess(c, a, r):
    c["classical_gibbs.ess"] += r.ess
    c["classical_gibbs.drawn"] += a["ensemble"].size


def _basis_dim(c, a, r):
    c["fock_quantum.basis_dim"] = max(c["fock_quantum.basis_dim"], float(r.dimension))


def _dense_states(c, a, r):
    c["fock_quantum.dense_states"] += sum(
        len(e) for e, v in zip(r.energies, r.vectors) if v is not None)


def _iterations(c, a, r):
    c["hartree.iterations"] += r.iterations


def _bytes(c, a, r):
    c["formats.bytes_written"] += os.path.getsize(a["path"])


COUNTERS = {
    "build_one_body": _eig,
    "sample_gaussian": _samples,
    "batch_interactions": _energies,
    "mode_interactions": _energies,
    "exchange_term": _exchange_pairs,
    "estimate_log_zr": _ess,
    "build_fock": _basis_dim,
    "sector_eigensystems": _dense_states,
    "solve_reduced_hartree": _iterations,
    "write_json": _bytes,
    "write_csv": _bytes,
    "write_matrix": _bytes,
    "write_ensemble": _bytes,
}


class Tracer:
    """Wraps the functions in SPANS and accumulates self times and counts."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[float] = []

    def _wrap(self, fn, metric, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                self.self_s[metric] += duration - self._stack.pop()
                self.calls[metric] += 1
                if self._stack:
                    self._stack[-1] += duration
            if counter is not None:
                counter(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return span

    def install(self) -> None:
        """Wrap every function in SPANS that exists.

        A function that is gone is listed in ``missing``; whether its layer
        still fires is for the caller to check against the spans it expects.
        """
        modules = {}
        for name in LAYERS:
            try:
                modules[name] = importlib.import_module(f"gibbslab.{name}")
            except ImportError:
                self.missing.append(f"gibbslab.{name}")
        for module, name, metric, sites in SPANS:
            original = getattr(modules.get(module), name, None)
            if original is None:
                self.missing.append(f"gibbslab.{module}.{name}")
                continue
            span = self._wrap(original, metric, COUNTERS.get(name))
            bound = 0
            for site, mod in modules.items():
                if sites is not None and site not in sites:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, span)
                        bound += 1
            if bound == 0:
                self.missing.append(f"gibbslab.{module}.{name} in {sites}")

    def report(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "missing": self.missing}


def layer_values(report: dict) -> dict[str, float]:
    """Per-layer metric values of one traced sample, derived ratios included.

    Layers that did not run read 0; whether they should have run is checked
    against the workload's expected spans, not here.
    """
    values = {m: 0.0 for _, _, m, _ in SPANS}
    values.update(report["self_s"])
    counts = report["counts"]
    for name in ("spectral.eig_calls", "spectral.eigenpairs", "gaussian.samples",
                 "interaction.energy_evals", "interaction.exchange_pairs",
                 "fock_quantum.basis_dim", "fock_quantum.dense_states",
                 "hartree.iterations", "formats.bytes_written"):
        values[name] = counts.get(name, 0.0)
    sample_s = values["gaussian.sample_s"]
    values["gaussian.samples_per_s"] = values["gaussian.samples"] / sample_s if sample_s else 0.0
    drawn = counts.get("classical_gibbs.drawn", 0.0)
    values["classical_gibbs.ess_frac"] = counts.get("classical_gibbs.ess", 0.0) / drawn if drawn else 0.0
    return values
