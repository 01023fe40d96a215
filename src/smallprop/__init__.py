"""Tiled small-object proposal pipeline and average-recall evaluation toolkit."""

__version__ = "0.1.0"

from .annotations import (
    GroundTruthObject,
    InstanceMap,
    SizeCategory,
    extract_instances,
    size_category,
)
from .detector import DetectorProfile, Proposal, detectable_range, preset, simulate
from .evaluation import (
    ARReport,
    Assignment,
    average_recall,
    evaluate_dataset,
    match,
    render_overlay,
)
from .exchange import ProposalRecord, read_proposals, write_proposals
from .masks import (
    BBox,
    BinaryMask,
    MaskFormatError,
    crop_mask,
    embed_mask,
    mask_iou,
    rle_decode,
    rle_encode,
    shift_mask,
)
from .pipeline import PipelineConfig, nms, run_tiled, run_whole
from .prng import SplitMix64, prng_next, stream_seed
from .raster import PnmFormatError, RasterImage, read_pnm, write_pnm
from .synth import Scene, SceneSpec, generate_scene, load_scene, save_scene
from .tiling import Tile, TileGridSpec, plan_grid, remap_mask

__all__ = [
    "ARReport",
    "Assignment",
    "BBox",
    "BinaryMask",
    "DetectorProfile",
    "GroundTruthObject",
    "InstanceMap",
    "MaskFormatError",
    "PipelineConfig",
    "PnmFormatError",
    "Proposal",
    "ProposalRecord",
    "RasterImage",
    "Scene",
    "SceneSpec",
    "SizeCategory",
    "SplitMix64",
    "Tile",
    "TileGridSpec",
    "average_recall",
    "crop_mask",
    "detectable_range",
    "embed_mask",
    "evaluate_dataset",
    "extract_instances",
    "generate_scene",
    "load_scene",
    "mask_iou",
    "match",
    "nms",
    "plan_grid",
    "preset",
    "prng_next",
    "read_pnm",
    "read_proposals",
    "remap_mask",
    "render_overlay",
    "rle_decode",
    "rle_encode",
    "run_tiled",
    "run_whole",
    "save_scene",
    "shift_mask",
    "simulate",
    "size_category",
    "stream_seed",
    "write_pnm",
    "write_proposals",
]
