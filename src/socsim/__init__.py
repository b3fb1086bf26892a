"""socsim: preference-driven social network simulation and GCN evaluation."""

from .graph import (
    SocialGraph,
    degree,
    load_graph_dir,
    path_exists,
    save_graph_dir,
    shortest_path_matrix,
    unconnected_pairs,
)
from .sdna import (
    Sdna,
    SimConfig,
    emit_event_stream,
    feature_score,
    feature_score_one_way,
    generate_population,
    iter_snapshots,
    mutate,
    pair_score,
    path_score,
    popularity_score,
    socialise,
)
from .similarity import (
    AUTO,
    GraphRepresentative,
    SimilaritySpec,
    augment,
    build_representative,
    gg_matrix,
    katz_matrix,
    rpr_matrix,
)
from .gcn import (
    GcnConfig,
    GcnModel,
    TrainInputs,
    TrainingDiverged,
    adam_step,
    backward,
    evaluate,
    forward,
    init_model,
    load_model,
    loss,
    save_model,
    train,
)
from .harness import (
    CellResult,
    ExperimentPlan,
    ExperimentReport,
    SnapshotReport,
    default_model_grid,
    desk_plan,
    desk_sim_config,
    emit_report,
    load_report,
    make_folds,
    parse_cell,
    run_cell,
    run_experiment,
)

__version__ = "0.1.0"
