import os

# One BLAS thread unless the caller chose a count: more threads move bits at width 500.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
