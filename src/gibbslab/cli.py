"""Experiment runner.

Subcommands: spectrum, sample-gaussian, classical-gibbs, quantum-gibbs,
hartree, study-1d, study-2d-classical.  Exit codes: 0 success, 2 refused
input (ConfigurationError), 3 numerical failure (ArithmeticError, LinAlgError,
or under --strict nonconvergence or unsafe cutoffs).  Result documents are
deterministic; wall-clock metadata goes to a separate meta.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import fock_quantum as fq
from . import formats, hartree, studies
from .config import ConfigurationError, RunConfig, load_config, validate
from .gaussian import sample_gaussian
from .interaction import build_pair_tensor
from .spectral import growth_exponent

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _thread_count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"needs an integer of at least 1, got {text!r}")
    return int(text)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gibbslab",
                                description="Gibbs states of trapped Bose gases")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "sample-gaussian", "classical-gibbs", "quantum-gibbs",
                 "hartree", "study-1d", "study-2d-classical"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=Path, default=None,
                        help="INI config file; defaults apply when omitted")
        sp.add_argument("--seed", type=int, default=None, help="override classical.seed")
        sp.add_argument("--out", type=Path, default=None, help="override output.directory")
        sp.add_argument("--threads", type=_thread_count, default=1,
                        help="worker threads over study-1d's temperature "
                             "schedule (1 runs it on the calling thread); "
                             "the other commands ignore it")
        sp.add_argument("--format", choices=("json", "csv"), default=None)
        sp.add_argument("--strict", action="store_true",
                        help="exit 3 on nonconvergence or unsafe cutoffs")
    return p


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.classical.seed = args.seed
    if args.out is not None:
        cfg.output.directory = str(args.out)
    if args.format is not None:
        cfg.output.format = args.format
    validate(cfg)
    return cfg


def _outdir(cfg: RunConfig) -> Path:
    d = Path(cfg.output.directory)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _emit(cfg: RunConfig, out: Path, name: str, results: dict,
          rows: list[dict] | None = None) -> list[Path]:
    written = []
    if cfg.output.format == "json" or rows is None:
        path = out / f"{name}.json"
        formats.write_json(path, name, results, config_echo=cfg.echo())
        written.append(path)
    if rows is not None and cfg.output.format == "csv":
        path = out / f"{name}.csv"
        formats.write_csv(path, rows)
        written.append(path)
    meta = {"written_at": time.time(), "gibbslab_version": __version__}
    (out / "meta.json").write_text(json.dumps(meta) + "\n", encoding="utf-8")
    return written


def _rowdicts(objs) -> list[dict]:
    return [dataclasses.asdict(o) for o in objs]


def cmd_spectrum(cfg: RunConfig, out: Path, args) -> int:
    op = studies.shifted_operator(cfg, studies.build_model_operator(cfg))
    lam, b = op.eigenvalues, growth_exponent(op)
    results = {
        "eigenvalues": lam,
        "growth_exponent": b,
        "trace_class": not b <= 1.0,  # sum lam^-p likely diverges when b p <= 1
        "hilbert_schmidt": not 2.0 * b <= 1.0,
        "partial_trace_p1": float(np.sum(lam**-1.0)),
        "partial_trace_p2": float(np.sum(lam**-2.0)),
    }
    rows = [{"index": j + 1, "eigenvalue": float(v)} for j, v in enumerate(lam)]
    _emit(cfg, out, "spectrum", results, rows)
    formats.write_matrix(out / "eigenvectors.gflm", op.eigenvectors)
    return EXIT_OK


def cmd_sample(cfg: RunConfig, out: Path, args) -> int:
    op = studies.shifted_operator(cfg, studies.build_model_operator(cfg))
    ens = sample_gaussian(op, cfg.model.modes, cfg.classical.samples,
                          cfg.classical.seed)
    formats.write_ensemble(out / "ensemble.gfl1", ens)
    emp = (np.abs(ens.coefficients) ** 2).mean(axis=0)
    results = {
        "modes": ens.cutoff, "samples": ens.size, "seed": ens.seed,
        "operator_hash": op.content_hash(),
        "empirical_mode_variance": emp,
        "target_mode_variance": 1.0 / op.eigenvalues[:ens.cutoff],
    }
    _emit(cfg, out, "sample-gaussian", results)
    return EXIT_OK


def cmd_classical(cfg: RunConfig, out: Path, args) -> int:
    op = studies.shifted_operator(cfg, studies.build_model_operator(cfg))
    tensor = build_pair_tensor(op, studies.bind_potential(cfg, op.grid), cfg.model.modes)
    zr, moments = studies.run_classical(cfg, op, tensor)
    results = {
        "log_zr": -zr.neg_log_zr, "neg_log_zr": zr.neg_log_zr,
        "stderr": zr.stderr, "ess": zr.ess,
        "low_confidence": zr.low_confidence,
        "moments": {},
    }
    for k, m in moments.items():
        results["moments"].update({f"k{k}": m.matrix, f"k{k}_stderr": m.stderr})
    _emit(cfg, out, "classical-gibbs", results)
    for k, m in moments.items():
        formats.write_matrix(out / f"moment_k{k}.gflm", m.matrix)
    if args.strict and zr.low_confidence:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_quantum(cfg: RunConfig, out: Path, args) -> int:
    studies.require_bare_quantum(cfg)
    op = studies.build_model_operator(cfg)
    c = cfg.quantum.coupling_c
    tensor = None if c == 0.0 else build_pair_tensor(
        op, studies.bind_potential(cfg, op.grid), cfg.model.modes)
    _, spectra_at = studies.quantum_schedule(cfg, op, tensor)
    rows = []
    for T in cfg.quantum.t_schedule:
        res = fq.gibbs_from_spectra(spectra_at(T), T)
        rows.append({"T": float(T), "lambda": c / T,
                     "free_energy": res.free_energy,
                     "log_partition": res.log_partition,
                     "mean_particles": res.mean_particles,
                     "top_sector_weight": res.top_sector_weight,
                     "cutoff_safe": res.cutoff_safe})
    rdms = {k: fq.reduced_density(res.state, k) for k in fq.ORDERS}
    results = {"schedule": rows,
               "final_rdm1_eigenvalues": np.linalg.eigvalsh(rdms[1])}
    _emit(cfg, out, "quantum-gibbs", results, rows)
    for k, rdm in rdms.items():
        formats.write_matrix(out / f"rdm_k{k}.gflm", rdm)
    if args.strict and not all(r["cutoff_safe"] for r in rows):
        return EXIT_NUMERICAL
    return EXIT_OK


def _stabilization_rows(stab: hartree.StabilizationReport) -> list[dict]:
    return [{"T": r.T, "lambda": r.lam, "nu": r.nu, "iterations": r.iterations,
             "residual": r.residual, "F_rH": r.free_energy,
             "E0": r.reference_energy, "delta_inf": r.delta_inf,
             "schatten_p_dist": r.schatten_p_dist} for r in stab.rows]


def _stabilization_flags(stab: hartree.StabilizationReport) -> dict:
    """The four verdicts of a stabilization report, in document order."""
    return {"sandwich_ok": stab.sandwich_ok, "sandwich_margin": stab.sandwich_margin,
            "delta_decreasing": stab.delta_decreasing,
            "schatten_decreasing": stab.schatten_decreasing}


def _nonconverged(stab: hartree.StabilizationReport) -> bool:
    """Some Hartree fixed point stopped with its residual not under hartree.tol."""
    return not all(r.converged for r in stab.rows)


def cmd_hartree(cfg: RunConfig, out: Path, args) -> int:
    _, _, stab = studies.run_counterterm(cfg)
    rows = _stabilization_rows(stab)
    results = {"rows": rows, "p": stab.p, "shared_modes": cfg.hartree.shared_modes,
               **_stabilization_flags(stab)}
    _emit(cfg, out, "hartree", results)
    formats.write_csv(out / "hartree.csv", rows)
    if args.strict and _nonconverged(stab):
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_study_1d(cfg: RunConfig, out: Path, args) -> int:
    rep = studies.run_study_1d(cfg, threads=args.threads)
    rows = [{"T": p.T, "lambda": p.lam,
             "F_lambda": p.free_energy_interacting, "F_0": p.free_energy_free,
             "diff_over_T": p.diff_over_T, "neg_log_zr": rep.neg_log_zr,
             "zr_stderr": rep.zr_stderr, "discrepancy": p.discrepancy,
             "delta_1": p.delta_1, "delta_2": p.delta_2,
             "mean_particles": p.mean_particles,
             "top_sector_weight": p.top_sector_weight,
             "cutoff_safe": p.cutoff_safe, "audit_delta_F": p.audit_delta_F}
            for p in rep.points]
    results = {**dataclasses.asdict(rep), "points": rows}
    _emit(cfg, out, "study-1d", results, rows)
    if args.strict and any(not p.cutoff_safe for p in rep.points):
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_study_2d(cfg: RunConfig, out: Path, args) -> int:
    rep = studies.run_study_2d_classical(cfg)
    uv_rows = _rowdicts(rep.uv_points)
    results = {
        "uv": uv_rows,
        "cauchy": _rowdicts(rep.cauchy_points),
        "direct_growing": rep.direct_growing,
        "exchange_increments_shrinking": rep.exchange_increments_shrinking,
        "cauchy_decreasing": rep.cauchy_decreasing,
        "stabilization": {"rows": _stabilization_rows(rep.stabilization),
                          **_stabilization_flags(rep.stabilization)},
        "relative_moment_trace_norm": rep.relative_moment_trace_norm,
        "integrability_w_hat": rep.integrability_w_hat,
        "integrability_w_trap": rep.integrability_w_trap,
        "integrability_ok": rep.integrability_ok,
    }
    _emit(cfg, out, "study-2d-classical", results, uv_rows)
    if args.strict and _nonconverged(rep.stabilization):
        return EXIT_NUMERICAL
    return EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "sample-gaussian": cmd_sample,
    "classical-gibbs": cmd_classical,
    "quantum-gibbs": cmd_quantum,
    "hartree": cmd_hartree,
    "study-1d": cmd_study_1d,
    "study-2d-classical": cmd_study_2d,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load(args)
        out = _outdir(cfg)
    except (ConfigurationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, out, args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
