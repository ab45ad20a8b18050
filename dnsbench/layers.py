"""Where the traced run wraps the program: layer name -> public call sites.

Every entry names a function attribute the tracer replaces for the
traced phase and puts back afterwards (see :mod:`tracer`).  The names are
the per-layer metric prefixes printed by ``run.py --trace 1``.
"""

from __future__ import annotations

import importlib

#: the per-step tree: root span first, then every layer inside a step
STEP_SITES = (
    ("repro.core.solver", "ChannelDNS", "step", "step"),
    ("repro.pencil.distributed", "DistributedChannelDNS", "step", "step"),
    ("repro.core.timestepper", "IMEXStepper", "step", "timestepper"),
    ("repro.core.nonlinear", "NonlinearTerms", "compute", "nonlinear"),
    ("repro.bsplines.spline", "BSplineBasis", "interpolate", "bsplines.interpolate"),
    ("repro.core.operators", "WallNormalOps", "values", "operators.collocate"),
    ("repro.core.operators", "WallNormalOps", "dvalues", "operators.collocate"),
    ("repro.core.operators", "WallNormalOps", "d2values", "operators.collocate"),
    ("repro.core.operators", "WallNormalOps", "laplacian_values", "operators.collocate"),
    ("repro.core.influence", "InfluenceSolver", "advance", "linalg.solve"),
    ("repro.linalg.custom", "FoldedLU", "solve", "linalg.solve"),
    # the name core.timestepper binds, not the defining module's
    ("repro.core.timestepper", None, "recover_uw", "velocity.recover_uw"),
    ("repro.fft.pipeline", "TransformPipeline", "to_physical_many", "fft.pipeline"),
    ("repro.fft.pipeline", "TransformPipeline", "from_physical_many", "fft.pipeline"),
    ("repro.pencil.parallel_fft", "PencilTransforms", "to_physical", "pencil.fft"),
    ("repro.pencil.parallel_fft", "PencilTransforms", "from_physical", "pencil.fft"),
    ("repro.pencil.transpose", "GlobalTranspose", "execute", "pencil.transpose"),
    ("repro.pencil.transpose", "PipelinedTranspose", "execute", "pencil.transpose"),
    ("repro.serving.accumulators", "StreamingStatistics", "sample", "serving.sample"),
)

#: driver construction: the factorisations and the FFT plans
SETUP_SITES = (
    ("repro.core.timestepper", "IMEXStepper", "__init__", "setup.factor"),
    ("repro.fft.pipeline", "TransformPipeline", "__init__", "setup.plan"),
    ("repro.pencil.parallel_fft", "PencilTransforms", "__init__", "setup.plan"),
)

#: layers whose per-step self-times, plus the root's, make up a step
STEP_LAYERS = tuple(dict.fromkeys(name for *_, name in STEP_SITES if name != "step"))


def install(tracer, sites) -> None:
    """Wrap every site; the tracer's ``unwrap_all`` removes them again."""
    for module, cls, attr, name in sites:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name)
