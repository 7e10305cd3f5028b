"""Golden digests: every default-flag output at seed 42, byte for byte.

The digests were recorded from the CLI pipeline ``sweep`` -> ``analyze`` ->
``figures --input`` at default flags.  Any change that alters a single
output byte fails here, so refactors of the sweep, stats and report layers
must keep the outputs identical.  Two more digests pin ``sweep.csv`` at
seed 42 with ``--runs 400 --turns 50`` and ``--runs 10 --turns 5000``.
"""

import hashlib

import pytest

from dyadsim import ModelParams, report, sweep

GOLDEN_SHA256 = {
    "sweep.csv": "531ff27f2b71d8b95d871744de26a7db71d60534498f61ce1b28529f1d9c80eb",
    "report.json": "bb0376cf349b532ed9e8c40f42019e60ca3d2a8b22583708c912d2c7db61f365",
    "table1.csv": "80319733fe6b5c95513910c57c7fb827fa36884038e80fb419852c0814fff3fd",
    "coefficients.csv": "254edd72f7900dad3dd4a9eecff6a89fc3464c7ededd8fad37d3725ff9d2a946",
    "fig2_traj_+1+1+1+1.csv": "70d61d38cd772d2a6980964a62e1d05d51145a076d357090ab515df4c22fad25",
    "fig2_traj_+10+1-1.csv": "445974a9848ba861fdd3db9dbf2305d2b6bf86a7f4d1a3ad2aca0e4522748fda",
    "fig2_traj_+10+10.csv": "28170d2b560fd91ff38ea8d474f4a9842bda64bf5c367eb17b9e9fb4c1f6846f",
    "fig2_traj_+100+1.csv": "d1d511e4efba2a642f75bf69ade6be196fd9a56c8edc13bfb9a40c214f19d7ed",
    "fig2_traj_-1+1+1-1.csv": "dfc2c104fd7b5a10d7c75e3a3b4da4c2ad6185999e55218566e46633b1a47e4f",
    "fig2_traj_-1+10+1.csv": "e4faaeddf972fba246e7dcf574ac785923bd5f1ad3f8d7f804ec29418d2a5a80",
    "fig3_hist.csv": "eefd8c45d62b50e3956ff0fed39357850e96ac3a2361148aefc05acfaaa53040",
    "fig6_ccf_+1+1+1+1.csv": "692acff9be676406414069a16f108f6a23f7e24336b7ea8253a9e8c50b0ce0bf",
    "fig6_ccf_+10+1-1.csv": "7db6159a50972a47d193e1e5126630cfd18ac4061f1b5abbadd48755e10ca4f5",
    "fig6_ccf_+10+10.csv": "92cbe26202553a699340610872df4910bb2e80fe0a4028ea28c6b3554aa14071",
    "fig6_ccf_+100+1.csv": "56aa901625909bf23b0eca81585647003801d2aca4b496edc7b4152c03fa69cd",
    "fig6_ccf_-1+1+1-1.csv": "a136c302c448b391a65d011efa5d6f3d3f6ff26112a5c7e0167a321504603ed2",
    "fig6_ccf_-1+10+1.csv": "12e7ef945823fb33b70adb930c21417479185279ac0cf3bf7a0d69bad27a768f",
    "fig7_lags_+1+1+1+1.csv": "ba9515a672fe790ba8012a8ef454c0e544f69cd6db703f566a199deab480a3a8",
    "fig7_lags_+10+1-1.csv": "a4dd7c53c44e11bcf7f53bf6d9d270aeae83aca08f163d5f171c767390008a21",
    "fig7_lags_+10+10.csv": "c1e573073a359fe40c7b6f26615755ff42ccdf5b9723340778e94bdd0bccb563",
    "fig7_lags_+100+1.csv": "5e3622073ced64e895ceed040f719540e2ea210c9369e5840c89af0853e03eeb",
    "fig7_lags_-1+1+1-1.csv": "ca0175e60b5490523ef92c47cd839df123ef4926cc8e2810728f8ade5ee00667",
    "fig7_lags_-1+10+1.csv": "d0b44447ba30ca9c1c301dc7a4180a65db4b4188d821d146d187e9bf2e299758",
}

# sweep.csv at seed 42 at the benchmark's other two shapes, (runs, turns):
# 5,140-row kernel blocks of 51 turns, and rows of 5,001 turns
SHAPE_SWEEP_SHA256 = {
    (400, 50): "59d4861264799da35d9e3cbdef2e3c49bf835e2a352b8e3481a89a65389a5328",
    (10, 5000): "197ba99975b15211370ebdf7e06e0b9cca305a3e54abfac84d840349cf222928",
}


@pytest.fixture(scope="module")
def outputs(default_config, default_table, default_report):
    texts = {
        "sweep.csv": sweep.sweep_csv_text(default_table),
        "report.json": report.report_json_text(default_report),
        "table1.csv": report.table1_csv_text(default_report),
        "coefficients.csv": report.coefficients_csv_text(default_report),
    }
    texts.update(report.figure_data("r_histogram", table=default_table))
    for batch in sweep.context_batches(default_config, report.DEFAULT_FIGURE_CONTEXTS):
        for panel in report.PANEL_NAMES[1:]:  # the context panels
            texts.update(report.figure_data(panel, batch=batch))
    return texts


def test_output_file_set(outputs):
    assert sorted(outputs) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_output_digest(outputs, name):
    digest = hashlib.sha256(outputs[name].encode()).hexdigest()
    assert digest == GOLDEN_SHA256[name]


@pytest.mark.parametrize("runs, turns", sorted(SHAPE_SWEEP_SHA256))
def test_sweep_digest_at_other_shapes(default_config, runs, turns):
    config = sweep.SweepConfig(
        master_seed=default_config.master_seed, runs_per_context=runs,
        params=ModelParams(turns=turns),
    )
    text = sweep.sweep_csv_text(sweep.run_sweep(config))
    assert hashlib.sha256(text.encode()).hexdigest() == SHAPE_SWEEP_SHA256[(runs, turns)]
