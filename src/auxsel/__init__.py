"""Auxiliary variable selection for incomplete data.

Given observations of a primary variable whose generating label is
latent, plus optional auxiliary variables, the package estimates the
predictive distribution with and without the auxiliaries and decides
from information criteria (or cross-validation) whether the auxiliaries
actually help.
"""

from .model import (
    SIGMA_FLOOR, D_THETA, AuxParams, AuxselError, Dataset,
    DegenerateDataError, FullParams, IllConditionedError,
    InvalidParamsError, NumericalError, ParseError, PrimaryParams,
    flat_dim, flatten, require_valid, unflatten, validate, vech, unvech,
)
from .gmm import (
    EmOptions, FitReport, fit_complete_x, fit_em_b, fit_em_y, logdens_b,
    logdens_x, logdens_y, resp_z_given_y, score_matrix, warm_fit_b, warm_fit_y,
)
from .infomat import COND_LIMIT, InfoMatrices, estimate_info, safe_inverse, without_latent
from .criteria import (
    CriterionReport, SelectionResult, aic_xb, aic_xy, aic_yb, aic_yy,
    risk_xb, select_auxiliary, tic,
)
from .loocv import LoocvReport, equivalence_gap, f_plugin, loocv_risk
from .simlab import (
    ExperimentConfig, ReplicateOutcome, TrueModelSpec, for_case,
    gauss_hermite_mean, generate, loss_x, loss_y, run_replicates,
    run_selection, run_unbiasedness, write_csv, write_markdown, format_table,
)
from .wine import (
    WineConfig, bundled_wine_path, load_wine, preprocess, run_wine,
)

__version__ = "0.1.0"
