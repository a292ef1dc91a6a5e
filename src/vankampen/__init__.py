"""Disk diagrams over finite presentations.

Core layers: words and presentations, free-product word problems, planar
disk diagrams with feature detectors, exhaustive enumeration with two
independent area oracles, whole-complex property scans, and a gallery of
worked presentations and diagram families.
"""

from .presentation import (
    CyclicWord,
    Generator,
    Presentation,
    PresentationError,
    TwoComplex,
    Word,
    cyclic_reduce,
    free_reduce,
    presentation_complex,
)
from .group_models import (
    FreeProductModel,
    GroupElement,
    LatticeVector,
    ModelError,
    cell_embeds,
    is_trivial,
    normal_form,
    project_z2,
)
from .diagram import (
    BoundaryPath,
    DiagramError,
    DiskDiagram,
    FaceTag,
    FeatureWitness,
    LiftError,
    ValidationReport,
    boundary_path,
    disk_pieces,
    find_cutcells,
    find_shells,
    find_spurs,
    is_reduced,
    is_topological_disk,
    remove_shell,
    remove_spur,
    validate,
    vertex_lift,
)

__all__ = [name for name in dir() if not name.startswith("_")]
