"""Function trees: transparent additive-multiplicative models with fast
partial dependence, partial association, and interaction analysis."""

from .data import (
    CATEGORICAL,
    NUMERIC,
    TRUTH_COLUMN,
    DataError,
    Dataset,
    SplitSpec,
    Variable,
    gen_friedman,
    gen_hu,
    load_csv,
    rmse,
    rmse_target,
    split_indices,
    take_rows,
    write_csv,
)
from .interactions import (
    BootstrapResult,
    EffectEngine,
    EffectEntry,
    EffectReport,
    bootstrap_compare,
    conditional_interaction,
    pin,
    pure_interaction,
    pure_interaction_brute,
    screen_h,
    screen_r,
    search_effects,
    strength,
)
from .pdengine import (
    EffectGrid,
    default_axis,
    pa,
    pd_brute,
    pd_fast,
    write_effect_csv,
)
from .smoothers import (
    Curve,
    LevelTable,
    SmootherSpec,
    UnivariateFunction,
    smooth,
    spline_fit,
)
from .tree import (
    FitConfig,
    FormatVersionError,
    FunctionTree,
    SchemaMismatchError,
    TreeNode,
    backfit_pass,
    difference,
    fit,
    load,
    save,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
