"""Aboveground-biomass mapping from large-footprint LiDAR waveforms.

Waveform metric extraction, plot calibration, random-forest or linear
trend modelling, and regression kriging, with a seeded synthetic-scene
generator for end-to-end verification against known truth.
"""

from .allometry import CarbonStock, PlotTable, carbon_stock, tree_agb
from .forest import Forest, ForestParams, fit_random_forest, rf_importance
from .geostat import (EmpiricalVariogram, OrdinaryKriger, SampleSet, VariogramModel,
                      empirical_variogram, fit_exponential, regression_krige)
from .linear import DesignMatrix, LinearModel, fit_ols, kfold_cv, stepwise_bic
from .model_io import load_model, save_model
from .pipeline import (CalibrationSweepRow, MapProduct, RunConfig, build_map,
                       calibration_pairs, calibration_sweep, fit_footprint_agb_model,
                       predict_footprints, run_mapping, validate_map)
from .raster import (Grid, GridStack, band_pca, match_points, pca_stack, read_ascii_grid,
                     resample, write_ascii_grid)
from .synth import Scene, SceneConfig, generate_scene, write_scene
from .textures import glcm_textures
from .waveform import (FilterResult, FootprintTable, GaussianComponent, NoiseStats,
                       WaveformMetrics, WaveformRecord, decompose_gaussians, detect_signal_bounds,
                       extract_metrics, footprint_table, identify_ground_peak, process_waveforms,
                       quality_filter)

__version__ = "0.1.0"
