# Import conal before any test module imports numpy, so the in-process and
# forked cells of this session run BLAS with one thread, as the CLI does.
import conal  # noqa: F401
