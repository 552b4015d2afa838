"""Golden regression on a tiny seeded instance.

The expected supports, mean errors and final objectives below were frozen
from the implementation that kept both a row and a column view of the
coefficients, and the batch run's whole objective trace from the one that
called ``amplitude_adjust`` once per amplitude round. Refactors of the
coefficient store, the shared helpers and the solver loops must reproduce
the supports and the trace's phase sequence exactly and the numbers within
rtol 1e-9. The batch run uses ``trigger=inf`` so inter-row switching runs
every round.

``EXPECTED_HARD`` holds two degenerate coder instances frozen from the
implementation that refit one column at a time: a batchwise pursuit whose
duplicate atoms span only a plane, so that three columns take all six atoms
(more than m = 3) through ridged refits, and a per-sample coding whose
samples include exact atoms, a scaled atom and a zero column.

Supports are encoded column by column: ``;`` separates columns and ``,``
separates the row indices of one column.
"""
import numpy as np
import pytest

from batchsvd import (LearnConfig, block_omp, dict_approx_init, initial_dictionary, objective,
                      run_benchmark)
from batchsvd.coding import _code_per_sample

from oracles import make_planted

RTOL = 1e-9

EXPECTED = {
    'block_omp': (
        '5,6,9;0;5,6,8,9;3,5;1,7,9;2,3;2;2;1,4,5,9;0,2,3,5,6;1,4,9;9;;6,8;5,8,9;7;4;3;1,4,9;5,6,8;8;1;6;5',
        0.13159372836226824,
        0.8773524150083647,
    ),
    'dict_approx_init': (
        '5,9;0;5,6,8,9;3,5;1,7,9;2,3;2;2;1,4,5,9;0,2,5,6,8;1,4,9;9;;0,6,8;5,8,9;7;4;3;1,4,9;5,6,8;8;1;6;5',
        0.11120313551455152,
        0.4841409117884284,
    ),
    'batch': (
        '6;5;1,2,3,6;;0,5;2,3,8;;1,2,3,4;3,6;7;0,2,3,5;0,1,2,4,7;;1;0;;4,5,7;9;0,1,2,3,4;1,4;0,2,5,8;;0,1,6;4',
        0.1345590445542434,
        0.6055263846049712,
    ),
    'batch-open': (
        '6,7;0,3;0,7;6,9;1,5;0,7;5,8;1,8;1,5;3,6;0,7;5,7',
        0.6756022095179114,
        6.164934787337166,
    ),
    'ksvd': (
        '1,2;7,9;1,2;4;3,9;3,6;6,8;1,5;1,2;0,9;5,8;3,5;1,7;5,8;0,3;3,9;0,7;8,9;1,5;5,7;6,8;6,9;2,5;4,7',
        0.197380127270974,
        1.553752724879332,
    ),
    'ksvd-open': (
        '4,8;3,9;6,7;1,4;5,9;0,3;6,9;5,6;5,9;4,8;0,8;0,9',
        0.721594327487506,
        6.672774502634498,
    ),
    'rnd-omp': (
        '1,5;8,9;4,5;5,7;0,8;2,5;2,9;7,8;4,5;4,6;1,5;5,6;0,4;7,9;5,6;6,8;1,9;4,6;0,7;1,8;1,6;1,8;5,9;1,9',
        0.5463193451164537,
        11.753376062228433,
    ),
    'rnd-omp-open': (
        '3,7;4,8;0,6;2,6;8,9;0,2;3,8;3,7;8,9;3,7;0,6;0,8',
        0.5633274126684467,
        4.964896604741453,
    ),
}

EXPECTED_HARD = {
    'block_omp-planar': ('0,1,2,3,4,5;0,1,2,3,4,5;0,1,2,3,4,5;0,1', 1.125, 7.25),
    'per-sample': (
        '2,6,8;0,8,9;2,5,8;3,4,6;3;;7;0,3,6;5,6,8;4,6,7;2,6,8;0,5',
        0.46913548580309516,
        4.314775826488978,
    ),
}


# the batch run's whole (phase, objective) trace: three outer rounds of ten
# inner entries, 45 inter pairs and two amplitude entries, each closed by an
# outer entry
BATCH_TRACE_PHASES = (
    ["outer"] + (["inner"] * 10 + ["inter"] * 45 + ["amplitude"] * 2 + ["outer"]) * 3
)
BATCH_TRACE_VALUES = [
    0.6736274696007529, 0.6726082225210916, 0.6715137191984191,
    0.6685385344572303, 0.6659094178265104, 0.6639972235381464,
    0.6612620641139806, 0.65831176989734, 0.6580944411471972,
    0.6552885605590086, 0.6552885605590082, 0.6550524244993458,
    0.6542431789596672, 0.6536722496341696, 0.6536273558070951,
    0.6536012228624365, 0.6535121372463212, 0.6535027347409604,
    0.653496770685535, 0.653496770685535, 0.6527546001556255,
    0.6526484507982941, 0.6526128075263964, 0.6515247019853204,
    0.651524701985319, 0.6515224565444433, 0.6515184914722948,
    0.6515184914722948, 0.6511753857994452, 0.6508595724319526,
    0.6506530380655511, 0.6506465641013826, 0.6506458975077808,
    0.6506458975077808, 0.6506458975077808, 0.6505798474292767,
    0.6504103987549952, 0.6504103987549952, 0.6503929225940182,
    0.6503921739078903, 0.6503921739078903, 0.6502320650806283,
    0.6501978224978868, 0.6501978224978868, 0.6501977361841965,
    0.6501977361841965, 0.6501977007672426, 0.6501949269160866,
    0.6501949269160866, 0.6501949269160866, 0.6501948568217935,
    0.6501948568217926, 0.6501948568217926, 0.6501948568217926,
    0.6501948568217926, 0.6501948568217926, 0.6323309491501414,
    0.6226569717581303, 0.6226569717581303, 0.6223656588409554,
    0.6221132460921321, 0.6219488258104775, 0.6216709287021409,
    0.621615363427729, 0.6214964429710079, 0.6213034427621773,
    0.6212214364371906, 0.6206883221667601, 0.6206883221667594,
    0.6206015846090922, 0.6203459360280785, 0.6201812635197748,
    0.620155644994745, 0.6201550184302265, 0.6201533938020096,
    0.6201511807900851, 0.6201503507221213, 0.6201503507221213,
    0.6201449696431673, 0.6201377086852767, 0.6201360939195801,
    0.6199481289952332, 0.6199481289952273, 0.6199476463747897,
    0.6199347523067124, 0.6199347523067124, 0.6198276643378813,
    0.6198121238870453, 0.6197388621674759, 0.6197385683276136,
    0.6197384331837378, 0.6197384331837378, 0.6197384331837378,
    0.6197095973469131, 0.6196454235712225, 0.6196454235712225,
    0.619635784122975, 0.6196323530598411, 0.6196323530598411,
    0.6196245343605955, 0.6196210760515979, 0.6196210760515979,
    0.61962106762668, 0.61962106762668, 0.6196210610593295,
    0.6196195560650626, 0.6196195560650626, 0.6196195560650626,
    0.6196195428463341, 0.6196195428463338, 0.6196195428463338,
    0.6196195428463338, 0.6196195428463338, 0.6196195428463338,
    0.6153593228925323, 0.6118897481183099, 0.6118897481183099,
    0.6116782471604125, 0.6115436572850896, 0.6114788805338982,
    0.6112421172821261, 0.6112004670078157, 0.6111153343449196,
    0.6110469128373017, 0.6110032185111578, 0.6107502835914682,
    0.6107502835914675, 0.6107008473858859, 0.6105342050941173,
    0.6104532316687612, 0.6104417211331701, 0.6104416800421012,
    0.610441462816395, 0.6104410235678319, 0.610440419214688,
    0.610440419214688, 0.6104355685012952, 0.6104334310687762,
    0.610432853648293, 0.6103376751058847, 0.6103376751058847,
    0.6103375940494662, 0.610328157688938, 0.610328157688938,
    0.6102798264912125, 0.6102762094718595, 0.6102261993529803,
    0.610225708849484, 0.6102256880797648, 0.6102256880797648,
    0.6102256880797648, 0.6102014536248658, 0.6101694842157468,
    0.6101694842157468, 0.6101644271245059, 0.610161934118784,
    0.610161934118784, 0.6101581235025815, 0.6101571848945089,
    0.6101571848945089, 0.6101571787040716, 0.6101571787040716,
    0.6101571777960626, 0.6101563974695303, 0.6101563974695303,
    0.6101563974695303, 0.6101563955879201, 0.6101563955879172,
    0.6101563955879172, 0.6101563955879172, 0.6101563955879172,
    0.6101563955879172, 0.607847986124017, 0.6055263846049712,
    0.6055263846049712,
]


def _supports(X):
    rows, cols, _ = X.entries()
    return ";".join(",".join(str(i) for i in rows[cols == j]) for j in range(X.p))


def _check(label, X, mean_error, objective):
    supp, mean_ref, obj_ref = {**EXPECTED, **EXPECTED_HARD}[label]
    assert _supports(X) == supp, label
    assert mean_error == pytest.approx(mean_ref, rel=RTOL, abs=0), label
    assert objective == pytest.approx(obj_ref, rel=RTOL, abs=0), label


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(20)
    Y, _, _ = make_planted(6, 10, 24, [1, 2, 3] * 8, rng, snr_db=20)
    H, _, _ = make_planted(6, 10, 12, [2] * 12, rng, snr_db=20)
    A0 = initial_dictionary(Y, 10, np.random.default_rng(1))
    return Y, H, A0


def test_block_omp_golden(instance):
    Y, _, A0 = instance
    X = block_omp(Y, A0, 48)
    R = Y - A0 @ X.to_dense()
    _check("block_omp", X, float(np.linalg.norm(R, axis=0).mean()), float(np.sum(R * R)))


def test_dict_approx_init_golden(instance):
    Y, _, A0 = instance
    A, X = dict_approx_init(Y, A0, 48, 4)
    R = Y - A @ X.to_dense()
    _check("dict_approx_init", X, float(np.linalg.norm(R, axis=0).mean()), objective(Y, A, X))


def test_run_benchmark_golden(instance):
    Y, H, _ = instance
    cfg = LearnConfig(budget=48, init_iters=3, inner_sweeps=2, amplitude_iters=2,
                      max_outer=3, trigger=float("inf"), seed=3)
    results = run_benchmark(Y, cfg, ["batch", "ksvd", "rnd-omp"], 10, ksvd_iters=3,
                            holdout=H)
    assert [r.label for r in results] == list(EXPECTED)[2:]
    trace = results[0].trace
    assert [ph for ph, _ in trace.entries()] == BATCH_TRACE_PHASES
    assert trace.values() == pytest.approx(BATCH_TRACE_VALUES, rel=RTOL, abs=0)
    for r in results:
        _check(r.label, r.coefficients, r.mean, r.trace.values()[-1])


def _check_fit(label, Y, A, X):
    R = Y - A @ X.to_dense()
    _check(label, X, float(np.linalg.norm(R, axis=0).mean()), float(np.sum(R * R)))


def test_block_omp_planar_duplicates_golden():
    # atoms e0, e1 three times each in R^3; column 1 is zero and the third
    # coordinate is out of reach, so 16 of the 20 picks tie at zero or ride
    # ridged residuals
    A = np.eye(3)[:, [0, 1, 0, 1, 0, 1]]
    Y = np.array([[3.0, 0.0, 1.0, -2.0], [1.0, 0.0, -2.5, 0.5], [2.0, 0.0, 1.5, -1.0]])
    _check_fit("block_omp-planar", Y, A, block_omp(Y, A, 20))


def test_code_per_sample_golden(instance):
    _, H, A0 = instance
    S = np.column_stack([H[:, :4], A0[:, 3], np.zeros(6), -2.5 * A0[:, 7], H[:, 4:8],
                         A0[:, 0] + A0[:, 5]])
    _check_fit("per-sample", S, A0, _code_per_sample(S, A0, 3)[0])
