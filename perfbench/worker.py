"""One repeat of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED OUT_DIR [RUN_ID]

Imports mflab from the checkout's ``src``, validates the pinned config and
builds the model (the end of set-up), then calls ``run_experiment`` while
a :class:`SpeedProbe` samples the host's speed.  With
a RUN_ID the calls into each layer are traced and the spans written next
to OUT_DIR.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _n_states(target, x, *args, **kwargs) -> int:
    x = getattr(x, "x", x)
    return 1 if x.ndim == 2 else x.shape[0]


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


class SpeedProbe:
    """Times a short fixed kernel every ``period`` seconds while the run
    goes on (SIGALRM in this thread).

    The host's speed drifts by tens of percent within seconds and over
    minutes; the probe measures the speed the run actually got.  Host
    contention slows Python-bound and vectorised code by different
    amounts, so there are two kernels: ``small`` (small numpy operations,
    dominated by interpreter overhead) and ``grid`` (interpolation on a
    2048-node grid, as a grid-based flow does).
    """

    def __init__(self, kind: str, period: float = 0.25):
        import numpy

        self.period = period
        self.samples: list[float] = []
        self._sum = numpy.sum
        self._interp = numpy.interp
        self._x = numpy.linspace(-1.0, 1.0, 16)[:, None]
        self._grid = numpy.linspace(-1.0, 1.0, 2048)
        self._values = self._grid * self._grid
        self._query = self._grid * 0.999
        self._work = {"small": self._small, "grid": self._grid_interp}[kind]

    def _small(self) -> float:
        acc = 0.0
        for _ in range(400):
            y = self._x * 1.0001 + 0.5
            acc += float(self._sum(y * y))
        return acc

    def _grid_interp(self) -> float:
        acc = 0.0
        for _ in range(90):
            y = self._interp(self._query, self._grid, self._values)
            acc += float(self._sum(y * 1.0001 + 0.5))
        return acc

    def kernel(self, *_):
        started = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.kernel)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def install_spans(tracer, cli):
    """Wrap the calls each layer receives along the three workloads."""
    import mflab.chaos
    import mflab.heatflow
    import mflab.meanfield
    import mflab.sampler

    w = tracer.wrap
    w(mflab.chaos, "estimate_kl", "chaos.estimate_kl")
    w(mflab.chaos, "solve_self_consistent", "meanfield.solve",
      observe=lambda system: system.iterations)
    w(mflab.chaos, "mala_sample", "sampler.mala",
      units=lambda target, n_samples, n_burnin, *a, **k: n_samples + n_burnin,
      observe=lambda res: (res[1].acceptance_rate, min(res[1].ess.values())))
    for attr in ("n_particle_log_density", "n_particle_log_density_grad"):
        w(mflab.sampler, attr, "sampler.logp", units=_n_states)
    w(mflab.chaos, "bregman_batch", "chaos.bregman")
    w(mflab.chaos, "sample_from_grid", "measure.sample_from_grid")
    for module in (mflab.meanfield, mflab.chaos):
        w(module, "first_variation", "model.first_variation")
    for module in (cli, mflab.heatflow, mflab.meanfield):
        w(module, "normalize_from_log_potential", "measure.normalize")
    w(cli, "reverse_flow_map", "heatflow.reverse_flow_map")
    w(cli, "covariance_profile", "heatflow.covariance_profile")
    w(mflab.heatflow, "covariance_opnorm", "measure.covariance_opnorm")
    w(mflab.heatflow, "w2_distance_1d", "measure.w2")
    w(mflab.heatflow, "ou_evolve", "heatflow.ou_evolve")
    w(cli, "mfld_simulate", "sampler.mfld",
      units=lambda model, n, horizon, step, *a, **k: int(round(horizon / step)),
      observe=len)
    for attr in ("trajectory_to_csv", "sweep_to_csv", "_write_summary"):
        w(cli, attr, "cli.write")
    w(mflab.heatflow, "flow_map_to_csv", "cli.write")


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced repeat."""
    spans = tracer.summary()

    def get(name, key):
        return spans.get(name, {}).get(key, 0.0)

    def per_unit_us(name, seconds):
        units = tracer.units[name]
        return 1e6 * seconds / units if units else 0.0

    mala = tracer.observed["sampler.mala"]
    mala_s = get("sampler.mala", "total_s")
    return {
        "sampler.mala_s": mala_s,
        "sampler.mala_self_s": get("sampler.mala", "self_s"),
        "sampler.mala_us_per_step": per_unit_us("sampler.mala", mala_s),
        "sampler.logp_calls": get("sampler.logp", "calls"),
        "sampler.logp_s": get("sampler.logp", "total_s"),
        "sampler.logp_us_per_state": per_unit_us(
            "sampler.logp", get("sampler.logp", "total_s")),
        "sampler.acceptance": (sum(a for a, _ in mala) / len(mala)
                               if mala else 0.0),
        "sampler.ess_per_s": (sum(e for _, e in mala) / mala_s
                              if mala_s else 0.0),
        "sampler.mfld_s": get("sampler.mfld", "total_s"),
        "sampler.mfld_us_per_step": per_unit_us(
            "sampler.mfld", get("sampler.mfld", "total_s")),
        "sampler.mfld_states_kept": sum(tracer.observed["sampler.mfld"]),
        "cli.write_s": get("cli.write", "total_s"),
        "meanfield.solve_s": get("meanfield.solve", "total_s"),
        "meanfield.iterations": sum(tracer.observed["meanfield.solve"]),
        "model.first_variation_calls": get("model.first_variation", "calls"),
        "chaos.estimate_kl_self_s": get("chaos.estimate_kl", "self_s"),
        "chaos.bregman_s": get("chaos.bregman", "total_s"),
        "measure.sample_from_grid_s": get("measure.sample_from_grid",
                                          "total_s"),
        "measure.sample_from_grid_calls": get("measure.sample_from_grid",
                                              "calls"),
        "heatflow.reverse_flow_map_s": get("heatflow.reverse_flow_map",
                                           "total_s"),
        "heatflow.covariance_profile_s": get("heatflow.covariance_profile",
                                             "total_s"),
        "measure.normalize_calls": get("measure.normalize", "calls"),
        "measure.covariance_opnorm_calls": get("measure.covariance_opnorm",
                                               "calls"),
        "measure.w2_s": get("measure.w2", "total_s"),
        "heatflow.ou_evolve_s": get("heatflow.ou_evolve", "total_s"),
    }


def main(argv) -> int:
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    name, seed, out_dir = argv[0], int(argv[1]), argv[2]
    run_id = argv[3] if len(argv) == 4 else None
    if not os.path.isfile(os.path.join(SRC, "mflab", "__init__.py")):
        print(f"no mflab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import numpy
    import scipy

    import mflab.cli as cli
    from mflab.errors import ConfigError, MflabError
    from workloads import PROBE_KERNELS, raw_config

    raw, dropped = raw_config(name, seed, cli.SCHEMA)
    cfg = cli.validate_config(raw)
    cli.build_model(cfg["model"])
    setup_done = time.monotonic()

    tracer = None
    if run_id is not None:
        from tracer import Tracer
        tracer = Tracer(run_id)
        install_spans(tracer, cli)
    error = None
    probe = SpeedProbe(PROBE_KERNELS[name])
    probe.kernel()
    with probe:
        first = len(probe.samples)
        started = time.perf_counter()
        try:
            exit_code = cli.run_experiment(cfg, out_dir)
        except ConfigError:
            exit_code = 2
        except MflabError:
            exit_code = 3
        except Exception:  # a crash is a failed operation, as in `mflab run`
            exit_code = 1
            error = traceback.format_exc(limit=-3)
        finally:
            wall_s = time.perf_counter() - started
            inside = probe.samples[first:]
    if tracer is not None:
        tracer.restore()
    # The kernels ran inside the timed region; their time is not the
    # program's.
    wall_s -= sum(inside)
    probe.kernel()
    result = {
        "setup_done": setup_done,
        # Harmonic mean: the kernel time at the run's average speed.
        "ref_s": len(probe.samples) / sum(1.0 / t for t in probe.samples),
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "exit_code": exit_code,
        "error": error,
        "config": cfg,
        "config_sha256": hashlib.sha256(json.dumps(
            cfg, sort_keys=True, default=str).encode()).hexdigest(),
        "dropped_keys": dropped,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["missing_targets"] = tracer.missing
        result["unreadable"] = sorted(tracer.unreadable)
        tracer.write(os.path.join(os.path.dirname(out_dir), "spans.csv"))
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
